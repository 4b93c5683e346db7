// The scratchpad knapsack as a 0/1 ILP through the in-tree branch-and-bound
// solver — the paper's formulation (it uses CPLEX), kept as the test oracle
// of production's exact DP (alloc::solve_knapsack_dp), which must choose the
// same objects with a bit-equal benefit on the paper benchmarks and the
// generated corpus.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/knapsack.h"
#include "alloc/memory_objects.h"
#include "lp/model.h"

namespace spmwcet::reference {

/// The 0/1 ILP solve_knapsack_ilp solves: variable i selects objects[i].
lp::Model knapsack_model(const std::vector<alloc::MemoryObject>& objects,
                         uint32_t capacity_bytes);

/// Exact solution via the ILP solver; `chosen` ascends and the benefit is
/// summed in that order.
alloc::KnapsackResult solve_knapsack_ilp(
    const std::vector<alloc::MemoryObject>& objects, uint32_t capacity_bytes);

/// ILP solves run by this oracle since process start; parity tests read it
/// to show the oracle side actually ran.
uint64_t knapsack_ilp_solves();

} // namespace spmwcet::reference
