// IPET cost split: how much of a from-scratch solve_ipet is LP
// construction (model build + standard form + simplex phase one) versus
// actual optimization (phase two / branch-and-bound)? The skeleton cache
// hoists exactly the construction part out of the per-point loop, so this
// split is the upper bound on what incremental re-solve can save on the
// pure IPET stage. Measured over every reachable function of G.721 under
// an SPM-free layout (the sweep's cache branch).
#include "bench_common.h"

#include <memory>

#include "link/layout.h"
#include "program/decoded_image.h"
#include "wcet/block_timing.h"
#include "wcet/frontend.h"
#include "wcet/ipet.h"

namespace {

using namespace spmwcet;

struct FuncState {
  const wcet::Cfg* cfg = nullptr;
  const wcet::LoopInfo* loops = nullptr;
  wcet::BlockTimes times;
};

struct Prepared {
  std::unique_ptr<const link::Image> img; // the view borrows it
  wcet::ProgramView view;
  std::vector<FuncState> funcs;
};

const Prepared& g721_prepared() {
  static const Prepared p = [] {
    Prepared out;
    out.img = std::make_unique<const link::Image>(
        link::link_program(workloads::make_g721().module, {}, {}));
    const program::DecodedImage dec(*out.img);
    out.view = wcet::bind_view(std::make_shared<const wcet::ProgramShape>(
                                   wcet::build_shape(*out.img, dec)),
                               *out.img, dec);
    // Time and solve callees before callers, uncached, like the analyzer.
    const wcet::CacheSupergraph& g = out.view.scaffold.supergraph;
    std::vector<uint64_t> func_wcet(g.func_addr.size(), wcet::kNoWcet);
    wcet::SiteStats stats;
    for (const uint32_t func : out.view.scaffold.bottom_up) {
      const uint32_t f = g.func_addr[func];
      FuncState fs{&out.view.cfgs.at(f), out.view.loops.at(f), {}};
      wcet::time_function(out.view.scaffold.sites, func, {}, func_wcet,
                          fs.times, stats);
      func_wcet[func] =
          wcet::solve_ipet(*fs.cfg, *fs.loops, out.view.ann, fs.times).wcet;
      out.funcs.push_back(std::move(fs));
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
          wcet::solve_ipet(*f.cfg, *f.loops, p.view.ann, f.times));
}
BENCHMARK(BM_IpetColdSolve);

/// Construction only: skeleton build (model + standard form + phase one).
void BM_IpetConstruction(benchmark::State& state) {
  const Prepared& p = g721_prepared();
  for (auto _ : state)
    for (const FuncState& f : p.funcs)
      benchmark::DoNotOptimize(wcet::IpetSkeleton(*f.cfg, *f.loops, p.view.ann));
}
BENCHMARK(BM_IpetConstruction);

/// Re-solve only: phase-two optimization against prebuilt skeletons —
/// the steady-state per-point cost of the incremental path.
void BM_IpetSkeletonResolve(benchmark::State& state) {
  const Prepared& p = g721_prepared();
  std::vector<wcet::IpetSkeleton> skeletons;
  for (const FuncState& f : p.funcs)
    skeletons.emplace_back(*f.cfg, *f.loops, p.view.ann);
  for (auto _ : state)
    for (std::size_t i = 0; i < p.funcs.size(); ++i) {
      const FuncState& f = p.funcs[i];
      benchmark::DoNotOptimize(
          skeletons[i].try_solve(*f.cfg, *f.loops, p.view.ann, f.times));
    }
}
BENCHMARK(BM_IpetSkeletonResolve);

} // namespace

int main(int argc, char** argv) {
  spmwcet::bench::print_header(
      "IPET construction vs solve split (G.721, all functions)");
  return spmwcet::bench::run_benchmarks(argc, argv);
}
