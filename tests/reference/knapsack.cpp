#include "reference/knapsack.h"

#include <atomic>

#include "lp/branch_bound.h"
#include "support/diag.h"

namespace spmwcet::reference {

namespace {
std::atomic<uint64_t> g_ilp_solves{0};
} // namespace

lp::Model knapsack_model(const std::vector<alloc::MemoryObject>& objects,
                         uint32_t capacity_bytes) {
  lp::Model m;
  std::vector<lp::Term> cap_terms, obj_terms;
  for (const alloc::MemoryObject& obj : objects) {
    const int v = m.add_var(obj.name, 0, 1, true);
    cap_terms.push_back({v, static_cast<double>(obj.size_bytes)});
    obj_terms.push_back({v, obj.benefit_nj});
  }
  m.add_constraint(cap_terms, lp::Relation::LE,
                   static_cast<double>(capacity_bytes), "capacity");
  m.set_objective(lp::Sense::Maximize, obj_terms);
  return m;
}

alloc::KnapsackResult solve_knapsack_ilp(
    const std::vector<alloc::MemoryObject>& objects, uint32_t capacity_bytes) {
  const lp::Solution sol =
      lp::solve_milp(knapsack_model(objects, capacity_bytes));
  if (sol.status != lp::Status::Optimal)
    throw SolverError("knapsack: ILP did not solve to optimality");
  g_ilp_solves.fetch_add(1, std::memory_order_relaxed);

  alloc::KnapsackResult result;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (sol.value(static_cast<int>(i)) > 0.5) {
      result.chosen.push_back(i);
      result.benefit_nj += objects[i].benefit_nj;
      result.used_bytes += objects[i].size_bytes;
    }
  }
  return result;
}

uint64_t knapsack_ilp_solves() {
  return g_ilp_solves.load(std::memory_order_relaxed);
}

} // namespace spmwcet::reference
