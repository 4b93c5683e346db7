// The knapsack formulation of static scratchpad allocation (Steinke et al.,
// DATE 2002): maximize total energy benefit subject to scratchpad capacity.
// Solved exactly two ways — as a 0/1 ILP through the in-tree
// branch-and-bound solver (the paper uses CPLEX here) and by dynamic
// programming (used as a cross-check in tests and as a fast path).
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/memory_objects.h"
#include "lp/model.h"

namespace spmwcet::alloc {

struct KnapsackResult {
  std::vector<std::size_t> chosen; ///< indices into the object vector
  double benefit_nj = 0.0;
  uint32_t used_bytes = 0;
};

/// The 0/1 ILP solve_knapsack_ilp solves: variable i selects objects[i].
lp::Model knapsack_model(const std::vector<MemoryObject>& objects,
                         uint32_t capacity_bytes);

/// Exact solution via the ILP solver.
KnapsackResult solve_knapsack_ilp(const std::vector<MemoryObject>& objects,
                                  uint32_t capacity_bytes);

/// Exact solution via dynamic programming over capacity bytes.
KnapsackResult solve_knapsack_dp(const std::vector<MemoryObject>& objects,
                                 uint32_t capacity_bytes);

} // namespace spmwcet::alloc
