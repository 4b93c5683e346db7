// The knapsack formulation of static scratchpad allocation (Steinke et al.,
// DATE 2002): maximize total energy benefit subject to scratchpad capacity.
// The paper solves it as a 0/1 ILP with CPLEX; here it is solved exactly by
// dynamic programming over capacity bytes. The in-tree branch-and-bound ILP
// formulation is the DP's test oracle (tests/reference/knapsack.h), which
// chooses the same objects on the paper benchmarks and the generated
// corpus.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/memory_objects.h"

namespace spmwcet::alloc {

struct KnapsackResult {
  std::vector<std::size_t> chosen; ///< ascending indices into the objects
  double benefit_nj = 0.0; ///< summed over `chosen` in ascending order
  uint32_t used_bytes = 0;
};

/// Exact solution via dynamic programming over capacity bytes. Only
/// positive-benefit objects that fit are candidates (the others can never
/// raise the optimum, and are never chosen); when all candidates fit
/// together they are all taken without building a table. Otherwise one
/// keep bit per (candidate, capacity) reconstructs the choice, a candidate
/// being kept only where it strictly improves the best benefit.
KnapsackResult solve_knapsack_dp(const std::vector<MemoryObject>& objects,
                                 uint32_t capacity_bytes);

} // namespace spmwcet::alloc
