#include "lp/branch_bound.h"

#include <cmath>
#include <optional>
#include <queue>

#include "lp/simplex.h"
#include "support/diag.h"

namespace spmwcet::lp {

namespace {

/// Extra variable bounds layered onto the base model per search node.
struct NodeBounds {
  std::vector<std::pair<int, double>> lower; // var -> raised lower bound
  std::vector<std::pair<int, double>> upper; // var -> lowered upper bound
};

Model with_bounds(const Model& base, const NodeBounds& nb) {
  Model m = base;
  // Bounds become explicit constraints; simplex already handles both.
  for (const auto& [var, lo] : nb.lower)
    m.add_constraint({{var, 1.0}}, Relation::GE, lo, "bb_lo");
  for (const auto& [var, hi] : nb.upper)
    m.add_constraint({{var, 1.0}}, Relation::LE, hi, "bb_hi");
  return m;
}

int most_fractional(const Model& model, const Solution& sol, double tol) {
  int best = -1;
  double best_frac = tol;
  for (std::size_t j = 0; j < model.num_vars(); ++j) {
    if (!model.vars()[j].integer) continue;
    const double v = sol.values[j];
    const double frac = std::fabs(v - std::round(v));
    if (frac > best_frac) {
      best_frac = frac;
      best = static_cast<int>(j);
    }
  }
  return best;
}

} // namespace

Solution solve_milp(const Model& model, const MilpOptions& opts) {
  const bool maximize = model.sense() == Sense::Maximize;
  const double worst =
      maximize ? -std::numeric_limits<double>::infinity()
               : std::numeric_limits<double>::infinity();
  auto better = [&](double a, double b) { return maximize ? a > b : a < b; };

  std::optional<Solution> incumbent;
  double incumbent_obj = worst;

  std::vector<NodeBounds> stack;
  stack.push_back({});
  std::size_t nodes = 0;
  bool any_feasible_relaxation = false;
  bool unbounded_root = false;

  while (!stack.empty()) {
    if (++nodes > opts.max_nodes)
      throw SolverError("branch&bound: node budget exceeded");
    const NodeBounds nb = std::move(stack.back());
    stack.pop_back();

    const Solution rel = solve_lp(with_bounds(model, nb));
    if (rel.status == Status::Infeasible) continue;
    if (rel.status == Status::Unbounded) {
      if (nodes == 1) unbounded_root = true;
      // An unbounded relaxation of a bounded-integral model cannot be
      // pruned by bound; branching cannot fix it either. Report upward.
      break;
    }
    any_feasible_relaxation = true;

    // Prune by bound.
    if (incumbent && !better(rel.objective, incumbent_obj) &&
        std::fabs(rel.objective - incumbent_obj) > 1e-9)
      continue;

    const int frac_var = most_fractional(model, rel, opts.int_tol);
    if (frac_var < 0) {
      // Integral (for all integer vars): candidate incumbent.
      if (!incumbent || better(rel.objective, incumbent_obj)) {
        incumbent = rel;
        incumbent_obj = rel.objective;
      }
      continue;
    }

    const double v = rel.values[static_cast<std::size_t>(frac_var)];
    NodeBounds down = nb;
    down.upper.emplace_back(frac_var, std::floor(v));
    NodeBounds up = nb;
    up.lower.emplace_back(frac_var, std::ceil(v));
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }

  if (incumbent) return *incumbent;
  Solution sol;
  sol.status = unbounded_root
                   ? Status::Unbounded
                   : (any_feasible_relaxation ? Status::Infeasible
                                              : Status::Infeasible);
  return sol;
}

} // namespace spmwcet::lp
