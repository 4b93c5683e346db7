// IPET cost split: how much of a from-scratch solve_ipet is LP
// construction (model build + standard form + simplex phase one) versus
// actual optimization (phase two / branch-and-bound)? The skeleton cache
// hoists exactly the construction part out of the per-point loop, so this
// split is the upper bound on what incremental re-solve can save on the
// pure IPET stage. Measured over every reachable function of G.721 under
// an SPM-free layout (the sweep's cache branch).
#include "bench_common.h"

#include "link/layout.h"
#include "wcet/annotations.h"
#include "wcet/block_timing.h"
#include "wcet/cfg.h"
#include "wcet/ipet.h"
#include "wcet/loops.h"
#include "wcet/value_analysis.h"

namespace {

using namespace spmwcet;

struct FuncState {
  wcet::Cfg cfg;
  wcet::LoopInfo loops;
  wcet::BlockTimes times;
};

struct Prepared {
  link::Image img;
  wcet::Annotations ann;
  std::vector<FuncState> funcs;
};

const Prepared& g721_prepared() {
  static const Prepared p = [] {
    Prepared out{link::link_program(workloads::make_g721().module, {}, {}),
                 {},
                 {}};
    out.ann = wcet::Annotations::from_image(out.img);
    std::map<uint32_t, wcet::Cfg> cfgs;
    for (const uint32_t f : wcet::reachable_functions(out.img, out.img.entry)) {
      auto& cfg = cfgs.emplace(f, wcet::build_cfg(out.img, f)).first->second;
      wcet::resolve_memory(out.img, cfg, out.ann);
    }
    // Process callees before callers (simple fixpoint; the call graph is
    // acyclic, the analyzer rejects recursion).
    std::map<uint32_t, uint64_t> callee_wcet;
    while (callee_wcet.size() < cfgs.size()) {
      for (const auto& [f, cfg] : cfgs) {
        if (callee_wcet.count(f)) continue;
        bool ready = true;
        for (const auto& b : cfg.blocks)
          if (b.call_target && !callee_wcet.count(*b.call_target))
            ready = false;
        if (!ready) continue;
        FuncState fs{cfg, wcet::find_loops(cfg), {}};
        wcet::TimingInputs ti;
        ti.callee_wcet = &callee_wcet;
        fs.times = wcet::time_blocks(cfg, ti);
        const auto r = wcet::solve_ipet(fs.cfg, fs.loops, out.ann, fs.times);
        callee_wcet[f] = r.wcet;
        out.funcs.push_back(std::move(fs));
      }
    }
    return out;
  }();
  return p;
}

/// Cold baseline: construction + solve, every function, every iteration.
void BM_IpetColdSolve(benchmark::State& state) {
  const Prepared& p = g721_prepared();
  for (auto _ : state)
    for (const FuncState& f : p.funcs)
      benchmark::DoNotOptimize(
          wcet::solve_ipet(f.cfg, f.loops, p.ann, f.times));
}
BENCHMARK(BM_IpetColdSolve);

/// Construction only: skeleton build (model + standard form + phase one).
void BM_IpetConstruction(benchmark::State& state) {
  const Prepared& p = g721_prepared();
  for (auto _ : state)
    for (const FuncState& f : p.funcs)
      benchmark::DoNotOptimize(wcet::IpetSkeleton(f.cfg, f.loops, p.ann));
}
BENCHMARK(BM_IpetConstruction);

/// Re-solve only: phase-two optimization against prebuilt skeletons —
/// the steady-state per-point cost of the incremental path.
void BM_IpetSkeletonResolve(benchmark::State& state) {
  const Prepared& p = g721_prepared();
  std::vector<wcet::IpetSkeleton> skeletons;
  for (const FuncState& f : p.funcs)
    skeletons.emplace_back(f.cfg, f.loops, p.ann);
  for (auto _ : state)
    for (std::size_t i = 0; i < p.funcs.size(); ++i) {
      const FuncState& f = p.funcs[i];
      benchmark::DoNotOptimize(
          skeletons[i].try_solve(f.cfg, f.loops, p.ann, f.times));
    }
}
BENCHMARK(BM_IpetSkeletonResolve);

} // namespace

int main(int argc, char** argv) {
  spmwcet::bench::print_header(
      "IPET construction vs solve split (G.721, all functions)");
  return spmwcet::bench::run_benchmarks(argc, argv);
}
