// Implicit Path Enumeration (IPET) path analysis: the per-function WCET is
// the optimum of an integer linear program over CFG edge execution counts
// with flow conservation and loop-bound constraints — exactly the
// formulation aiT/CPLEX solve in the paper's toolchain, here handled by the
// in-tree branch-and-bound solver.
//
// The constraint matrix is layout-invariant: across placements of one
// ProgramShape only the objective (block cycle costs) moves. IpetSkeleton
// captures the matrix once — standard-form construction plus simplex phase
// one via lp::PreparedLp — and re-solves phase two per placement point,
// writing the dense objective in place; IpetCache keeps each function's
// last answer and reuses it for an equal objective.
// The skeleton replays the cold solver's arithmetic exactly, so a skeleton
// answer is bit-identical to solve_ipet's; whenever it cannot guarantee
// that (loop bounds changed, or the LP relaxation came out fractional and
// branch-and-bound is actually needed), it reports failure and the caller
// falls back to the from-scratch solve.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lp/model.h"
#include "wcet/annotations.h"
#include "wcet/block_timing.h"
#include "wcet/cfg.h"
#include "wcet/loops.h"

namespace spmwcet::wcet {

struct IpetResult {
  uint64_t wcet = 0;
  /// Worst-case execution count of each block on the critical path
  /// (the LP's block flow), index = block id.
  std::vector<uint64_t> block_counts;
};

/// Solves the IPET ILP for one function.
/// Requires a bound annotation for every loop header (AnnotationError
/// otherwise — the analyzer pre-validates for a friendlier message).
IpetResult solve_ipet(const Cfg& cfg, const LoopInfo& loops,
                      const Annotations& ann, const BlockTimes& times);

/// The integer program solve_ipet solves for one function: edge-count
/// variables, flow conservation, loop bounds and the block-cost objective.
/// The solver parity tests run it through production and oracle LP solvers.
lp::Model ipet_model(const Cfg& cfg, const LoopInfo& loops,
                     const Annotations& ann, const BlockTimes& times);

/// One function's prepared IPET program: model + phase-one tableau, built
/// from a representative placement, re-solvable against any placement of
/// the same shape function.
class IpetSkeleton {
public:
  /// Builds the skeleton from one placement's CFG/loops/annotations.
  /// Throws AnnotationError exactly where solve_ipet would (missing bound).
  IpetSkeleton(const Cfg& cfg, const LoopInfo& loops, const Annotations& ann);
  ~IpetSkeleton();
  IpetSkeleton(IpetSkeleton&&) noexcept;
  IpetSkeleton& operator=(IpetSkeleton&&) noexcept;

  /// Solves for one placement point. Returns nullopt when the skeleton
  /// cannot prove its answer equals solve_ipet's (this placement's loop
  /// bounds differ from the build-time ones, or the LP relaxation is not
  /// integral); the caller must then fall back to solve_ipet. Thread-safe.
  /// Equal to accepts() followed by solve_accepted().
  std::optional<IpetResult> try_solve(const Cfg& cfg, const LoopInfo& loops,
                                      const Annotations& ann,
                                      const BlockTimes& times) const;

  /// Whether this placement's loop bounds and totals are the build-time
  /// ones, which the constraint matrix bakes in.
  bool accepts(const Cfg& cfg, const LoopInfo& loops,
               const Annotations& ann) const;

  /// try_solve for a placement accepts() passed: a pure function of the
  /// skeleton and the objective (`times`).
  std::optional<IpetResult> solve_accepted(const Cfg& cfg,
                                           const BlockTimes& times) const;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct IpetCacheStats {
  uint64_t builds = 0;    ///< skeletons constructed (one per shape function)
  uint64_t hits = 0;      ///< solves served by an existing skeleton
  /// Hits answered from the function's memo without a re-solve; a memo hit
  /// is also counted in `hits`.
  uint64_t memo_hits = 0;
  uint64_t fallbacks = 0; ///< solves the skeleton declined (cold re-solve)
};

/// Thread-safe per-ProgramShape skeleton store, indexed by shape function
/// index. One IpetCache lives per workload (the harness keeps it in the
/// batch ArtifactCache); concurrent sweep points share skeletons.
///
/// Each function also keeps its last skeleton answer with the objective it
/// answered (block and edge cycles), so a point that leaves a function's
/// times unchanged reuses it. The memo answers only once the skeleton's
/// loop-bound check has passed, and only for an equal objective, so a memo
/// answer is the value the re-solve would compute.
class IpetCache {
public:
  IpetCache();
  ~IpetCache();
  IpetCache(IpetCache&&) noexcept;
  IpetCache& operator=(IpetCache&&) noexcept;

  /// Solves one function's IPET program through its cached skeleton,
  /// building the skeleton on first use and falling back to the
  /// from-scratch solve_ipet whenever the skeleton declines. The result is
  /// bit-identical to solve_ipet(cfg, loops, ann, times) either way.
  IpetResult solve(std::size_t func_index, const Cfg& cfg,
                   const LoopInfo& loops, const Annotations& ann,
                   const BlockTimes& times) const;

  IpetCacheStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

} // namespace spmwcet::wcet
