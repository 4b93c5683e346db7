#include "alloc/knapsack.h"

#include <algorithm>

#include "lp/branch_bound.h"
#include "support/diag.h"

namespace spmwcet::alloc {

lp::Model knapsack_model(const std::vector<MemoryObject>& objects,
                         uint32_t capacity_bytes) {
  lp::Model m;
  std::vector<lp::Term> cap_terms, obj_terms;
  for (const MemoryObject& obj : objects) {
    const int v = m.add_var(obj.name, 0, 1, true);
    cap_terms.push_back({v, static_cast<double>(obj.size_bytes)});
    obj_terms.push_back({v, obj.benefit_nj});
  }
  m.add_constraint(cap_terms, lp::Relation::LE,
                   static_cast<double>(capacity_bytes), "capacity");
  m.set_objective(lp::Sense::Maximize, obj_terms);
  return m;
}

KnapsackResult solve_knapsack_ilp(const std::vector<MemoryObject>& objects,
                                  uint32_t capacity_bytes) {
  const lp::Solution sol =
      lp::solve_milp(knapsack_model(objects, capacity_bytes));
  if (sol.status != lp::Status::Optimal)
    throw SolverError("knapsack: ILP did not solve to optimality");

  KnapsackResult result;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (sol.value(static_cast<int>(i)) > 0.5) {
      result.chosen.push_back(i);
      result.benefit_nj += objects[i].benefit_nj;
      result.used_bytes += objects[i].size_bytes;
    }
  }
  return result;
}

KnapsackResult solve_knapsack_dp(const std::vector<MemoryObject>& objects,
                                 uint32_t capacity_bytes) {
  const std::size_t n = objects.size();
  const std::size_t cap = capacity_bytes;
  // best[w] = max benefit using capacity w; keep[i][w] for reconstruction.
  std::vector<double> best(cap + 1, 0.0);
  std::vector<std::vector<uint8_t>> keep(
      n, std::vector<uint8_t>(cap + 1, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t w = objects[i].size_bytes;
    const double b = objects[i].benefit_nj;
    if (w > cap) continue;
    for (std::size_t c = cap; c >= w; --c) {
      if (best[c - w] + b > best[c]) {
        best[c] = best[c - w] + b;
        keep[i][c] = 1;
      }
      if (c == w) break;
    }
  }
  KnapsackResult result;
  std::size_t c = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (keep[i][c]) {
      result.chosen.push_back(i);
      result.benefit_nj += objects[i].benefit_nj;
      result.used_bytes += objects[i].size_bytes;
      c -= objects[i].size_bytes;
    }
  }
  std::reverse(result.chosen.begin(), result.chosen.end());
  return result;
}

} // namespace spmwcet::alloc
