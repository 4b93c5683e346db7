// Branch-and-bound MILP solver on top of the simplex LP relaxation.
#pragma once

#include <functional>

#include "lp/model.h"

namespace spmwcet::lp {

struct MilpOptions {
  double int_tol = 1e-6;
  /// Safety valve for pathological instances; the IPET and knapsack models
  /// solved here are far smaller.
  std::size_t max_nodes = 200000;
};

/// Solves `model` to integral optimality (for its integer-marked variables).
/// Throws SolverError when the node budget is exhausted.
Solution solve_milp(const Model& model, const MilpOptions& opts = {});

/// Solves a search node's LP relaxation; solve_milp uses lp::solve_lp.
using RelaxationSolver = std::function<Solution(const Model&)>;

/// The same search with `relax` solving every node's relaxation. The
/// solver parity tests pass a relaxation that runs production and oracle
/// side by side, so they see each node LP the search solves.
Solution solve_milp(const Model& model, const MilpOptions& opts,
                    const RelaxationSolver& relax);

} // namespace spmwcet::lp
