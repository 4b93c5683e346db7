#include "wcet/ipet.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <string>

#include "lp/branch_bound.h"
#include "lp/simplex.h"
#include "support/diag.h"

namespace spmwcet::wcet {

namespace {

/// The IPET model of one function plus its variable layout and the loop
/// bounds it was built with (bounds are baked into constraint rows, so a
/// skeleton must verify them against every placement it solves for).
struct IpetBuild {
  lp::Model model;
  std::vector<int> edge_var;
  int entry_var = -1;
  std::vector<int> exit_var;
  std::vector<int64_t> loop_bounds; // per loop, loops.loops order
  std::vector<std::optional<int64_t>> loop_totals;
};

IpetBuild build_ipet(const Cfg& cfg, const LoopInfo& loops,
                     const Annotations& ann) {
  IpetBuild b;
  lp::Model& m = b.model;

  // One variable per CFG edge, plus a virtual entry edge into block 0 and a
  // virtual exit edge out of every exit block.
  b.edge_var.resize(cfg.edges.size());
  for (std::size_t e = 0; e < cfg.edges.size(); ++e)
    b.edge_var[e] = m.add_var("e" + std::to_string(e), 0,
                              std::numeric_limits<double>::infinity(), true);
  b.entry_var = m.add_var("entry", 1, 1, true);
  b.exit_var.assign(cfg.blocks.size(), -1);
  for (const auto& block : cfg.blocks)
    if (block.is_exit)
      b.exit_var[static_cast<std::size_t>(block.id)] =
          m.add_var("exit" + std::to_string(block.id), 0,
                    std::numeric_limits<double>::infinity(), true);

  // Flow conservation per block: sum(in) == sum(out).
  for (const auto& block : cfg.blocks) {
    std::vector<lp::Term> terms;
    for (const int e : block.in_edges)
      terms.push_back({b.edge_var[static_cast<std::size_t>(e)], 1.0});
    if (block.id == 0) terms.push_back({b.entry_var, 1.0});
    for (const int e : block.out_edges)
      terms.push_back({b.edge_var[static_cast<std::size_t>(e)], -1.0});
    if (b.exit_var[static_cast<std::size_t>(block.id)] >= 0)
      terms.push_back({b.exit_var[static_cast<std::size_t>(block.id)], -1.0});
    m.add_constraint(std::move(terms), lp::Relation::EQ, 0.0,
                     "flow_b" + std::to_string(block.id));
  }

  // Loop bounds: back-edge flow <= bound * entry-edge flow.
  for (const Loop& loop : loops.loops) {
    const uint32_t header_addr =
        cfg.blocks[static_cast<std::size_t>(loop.header)].first_addr;
    const auto bound = ann.loop_bound(header_addr);
    if (!bound.has_value())
      throw AnnotationError("ipet: no loop bound for header at address " +
                            std::to_string(header_addr) + " in " + cfg.name);
    b.loop_bounds.push_back(*bound);
    std::vector<lp::Term> terms;
    for (const int e : loop.back_edges)
      terms.push_back({b.edge_var[static_cast<std::size_t>(e)], 1.0});
    for (const int e : loop.entry_edges)
      terms.push_back(
          {b.edge_var[static_cast<std::size_t>(e)], -static_cast<double>(*bound)});
    m.add_constraint(std::move(terms), lp::Relation::LE, 0.0,
                     "loop_h" + std::to_string(loop.header));

    // Flow fact: summed back-edge executions per invocation (the function
    // enters exactly once per invocation, so the cap is absolute).
    const auto total = ann.loop_total(header_addr);
    b.loop_totals.push_back(total);
    if (total) {
      std::vector<lp::Term> tterms;
      for (const int e : loop.back_edges)
        tterms.push_back({b.edge_var[static_cast<std::size_t>(e)], 1.0});
      m.add_constraint(std::move(tterms), lp::Relation::LE,
                       static_cast<double>(*total),
                       "loop_total_h" + std::to_string(loop.header));
    }
  }

  return b;
}

/// Objective: block cost on in-flow, edge extras on the edges themselves.
/// Calls `term(var, coef)` once per objective term, in term order.
template <class Term>
void for_each_objective_term(const Cfg& cfg, const BlockTimes& times,
                             const IpetBuild& b, Term&& term) {
  for (const auto& block : cfg.blocks) {
    const double cost = static_cast<double>(
        times.block_cycles[static_cast<std::size_t>(block.id)]);
    if (cost == 0.0) continue;
    for (const int e : block.in_edges)
      term(b.edge_var[static_cast<std::size_t>(e)], cost);
    if (block.id == 0) term(b.entry_var, cost);
  }
  for (const auto& [e, extra] : times.edge_cycles)
    term(b.edge_var[static_cast<std::size_t>(e)], static_cast<double>(extra));
}

std::vector<lp::Term> build_objective(const Cfg& cfg, const BlockTimes& times,
                                      const IpetBuild& b) {
  std::vector<lp::Term> obj;
  for_each_objective_term(cfg, times, b, [&](int var, double coef) {
    obj.push_back({var, coef});
  });
  return obj;
}

IpetResult extract_result(const Cfg& cfg, const IpetBuild& b,
                          const lp::Solution& sol) {
  IpetResult result;
  result.wcet = static_cast<uint64_t>(std::llround(sol.objective));
  result.block_counts.resize(cfg.blocks.size(), 0);
  for (const auto& block : cfg.blocks) {
    double flow = 0.0;
    for (const int e : block.in_edges)
      flow += sol.value(b.edge_var[static_cast<std::size_t>(e)]);
    if (block.id == 0) flow += sol.value(b.entry_var);
    result.block_counts[static_cast<std::size_t>(block.id)] =
        static_cast<uint64_t>(std::llround(flow));
  }
  return result;
}

} // namespace

lp::Model ipet_model(const Cfg& cfg, const LoopInfo& loops,
                     const Annotations& ann, const BlockTimes& times) {
  IpetBuild b = build_ipet(cfg, loops, ann);
  b.model.set_objective(lp::Sense::Maximize, build_objective(cfg, times, b));
  return std::move(b.model);
}

IpetResult solve_ipet(const Cfg& cfg, const LoopInfo& loops,
                      const Annotations& ann, const BlockTimes& times) {
  IpetBuild b = build_ipet(cfg, loops, ann);
  b.model.set_objective(lp::Sense::Maximize, build_objective(cfg, times, b));

  const lp::Solution sol = lp::solve_milp(b.model);
  if (sol.status == lp::Status::Unbounded)
    throw AnnotationError("ipet: unbounded flow in " + cfg.name +
                          " (missing loop bound?)");
  if (sol.status != lp::Status::Optimal)
    throw SolverError("ipet: solver failed on " + cfg.name);

  return extract_result(cfg, b, sol);
}

// ---- IpetSkeleton ----------------------------------------------------------

struct IpetSkeleton::Impl {
  IpetBuild build;
  lp::PreparedLp prepared;

  explicit Impl(IpetBuild b) : build(std::move(b)), prepared(build.model) {}
};

IpetSkeleton::IpetSkeleton(const Cfg& cfg, const LoopInfo& loops,
                           const Annotations& ann)
    : impl_(std::make_unique<Impl>(build_ipet(cfg, loops, ann))) {}

IpetSkeleton::~IpetSkeleton() = default;
IpetSkeleton::IpetSkeleton(IpetSkeleton&&) noexcept = default;
IpetSkeleton& IpetSkeleton::operator=(IpetSkeleton&&) noexcept = default;

bool IpetSkeleton::accepts(const Cfg& cfg, const LoopInfo& loops,
                           const Annotations& ann) const {
  const IpetBuild& b = impl_->build;
  // The bounds are constraint coefficients, baked in at build time.
  // Annotations are keyed by header address, which moves with the layout,
  // so compare by value in loop order; any difference (or a missing bound,
  // which solve_ipet must diagnose itself) declines the solve.
  if (loops.loops.size() != b.loop_bounds.size()) return false;
  for (std::size_t li = 0; li < loops.loops.size(); ++li) {
    const uint32_t header_addr =
        cfg.blocks[static_cast<std::size_t>(loops.loops[li].header)]
            .first_addr;
    const auto bound = ann.loop_bound(header_addr);
    if (!bound.has_value() || *bound != b.loop_bounds[li]) return false;
    if (ann.loop_total(header_addr) != b.loop_totals[li]) return false;
  }
  return true;
}

std::optional<IpetResult>
IpetSkeleton::solve_accepted(const Cfg& cfg, const BlockTimes& times) const {
  const IpetBuild& b = impl_->build;

  // Dense objective exactly as Model::set_objective expands the terms
  // (repeated terms accumulate, in term order), built in place.
  std::vector<double> objective(b.model.num_vars(), 0.0);
  for_each_objective_term(cfg, times, b, [&](int var, double coef) {
    objective[static_cast<std::size_t>(var)] += coef;
  });

  const lp::Solution sol =
      impl_->prepared.solve(lp::Sense::Maximize, objective);
  if (sol.status == lp::Status::Unbounded)
    throw AnnotationError("ipet: unbounded flow in " + cfg.name +
                          " (missing loop bound?)");
  if (sol.status != lp::Status::Optimal)
    throw SolverError("ipet: solver failed on " + cfg.name);

  // The skeleton only answers when branch-and-bound would have accepted the
  // root relaxation as-is (flow models are integral at the relaxation; see
  // test_lp's FlowLikeModelIsIntegralAtRelaxation). Same test, same
  // tolerance as lp::solve_milp's branching decision.
  for (std::size_t j = 0; j < b.model.num_vars(); ++j) {
    if (!b.model.vars()[j].integer) continue;
    const double v = sol.values[j];
    if (std::fabs(v - std::round(v)) > 1e-6) return std::nullopt;
  }

  return extract_result(cfg, b, sol);
}

std::optional<IpetResult>
IpetSkeleton::try_solve(const Cfg& cfg, const LoopInfo& loops,
                        const Annotations& ann,
                        const BlockTimes& times) const {
  if (!accepts(cfg, loops, ann)) return std::nullopt;
  return solve_accepted(cfg, times);
}

// ---- IpetCache -------------------------------------------------------------

/// A function's last skeleton answer and the objective it answered.
struct IpetMemo {
  std::vector<uint64_t> block_cycles;
  EdgeCycles edge_cycles;
  IpetResult result;
};

struct IpetCache::Impl {
  std::mutex mu;
  std::vector<std::shared_ptr<const IpetSkeleton>> skeletons;
  std::vector<std::shared_ptr<const IpetMemo>> memos; ///< by function index
  std::atomic<uint64_t> builds{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> memo_hits{0};
  std::atomic<uint64_t> fallbacks{0};
};

IpetCache::IpetCache() : impl_(std::make_unique<Impl>()) {}
IpetCache::~IpetCache() = default;
IpetCache::IpetCache(IpetCache&&) noexcept = default;
IpetCache& IpetCache::operator=(IpetCache&&) noexcept = default;

IpetResult IpetCache::solve(std::size_t func_index, const Cfg& cfg,
                            const LoopInfo& loops, const Annotations& ann,
                            const BlockTimes& times) const {
  Impl& impl = *impl_;
  std::shared_ptr<const IpetSkeleton> skel;
  std::shared_ptr<const IpetMemo> memo;
  {
    const std::lock_guard<std::mutex> lock(impl.mu);
    if (func_index < impl.skeletons.size()) {
      skel = impl.skeletons[func_index];
      memo = impl.memos[func_index];
    }
  }
  if (skel == nullptr) {
    // Build outside the lock (phase one is the expensive part); the first
    // finished build wins, concurrent losers adopt it.
    auto built = std::make_shared<const IpetSkeleton>(cfg, loops, ann);
    const std::lock_guard<std::mutex> lock(impl.mu);
    if (impl.skeletons.size() <= func_index) {
      impl.skeletons.resize(func_index + 1);
      impl.memos.resize(func_index + 1);
    }
    if (impl.skeletons[func_index] == nullptr) {
      impl.skeletons[func_index] = std::move(built);
      impl.builds.fetch_add(1, std::memory_order_relaxed);
    }
    skel = impl.skeletons[func_index];
  } else {
    impl.hits.fetch_add(1, std::memory_order_relaxed);
  }

  if (skel->accepts(cfg, loops, ann)) {
    // The memo holds an answer of this skeleton, which accepted this view:
    // for an equal objective it is exactly what the re-solve would return.
    if (memo != nullptr && memo->block_cycles == times.block_cycles &&
        memo->edge_cycles == times.edge_cycles) {
      impl.memo_hits.fetch_add(1, std::memory_order_relaxed);
      return memo->result;
    }
    if (auto result = skel->solve_accepted(cfg, times)) {
      auto fresh = std::make_shared<const IpetMemo>(
          IpetMemo{times.block_cycles, times.edge_cycles, *result});
      const std::lock_guard<std::mutex> lock(impl.mu);
      impl.memos[func_index] = std::move(fresh);
      return *result;
    }
  }
  impl.fallbacks.fetch_add(1, std::memory_order_relaxed);
  return solve_ipet(cfg, loops, ann, times);
}

IpetCacheStats IpetCache::stats() const {
  IpetCacheStats s;
  s.builds = impl_->builds.load(std::memory_order_relaxed);
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.memo_hits = impl_->memo_hits.load(std::memory_order_relaxed);
  s.fallbacks = impl_->fallbacks.load(std::memory_order_relaxed);
  return s;
}

} // namespace spmwcet::wcet
