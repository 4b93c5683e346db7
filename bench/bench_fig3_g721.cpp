// Figure 3 of the paper: G.721 simulated cycles (ACET) and analyzed WCET
// for (a) scratchpad sizes and (b) unified direct-mapped cache sizes from
// 64 bytes to 8 KiB.
//
// Expected shape: with a scratchpad both curves fall together (constant
// gap); with a cache the ACET improves while the MUST-only WCET stays at a
// high plateau.
#include "bench_common.h"

#include "link/layout.h"
#include "wcet/analyzer.h"

namespace {

using namespace spmwcet;

void BM_AnalyzeG721Scratchpad(benchmark::State& state) {
  const auto wl = workloads::make_g721();
  const auto img = link::link_program(wl.module, {}, {});
  for (auto _ : state)
    benchmark::DoNotOptimize(wcet::analyze_wcet(img, {}));
}
BENCHMARK(BM_AnalyzeG721Scratchpad);

void BM_AnalyzeG721Cache(benchmark::State& state) {
  const auto wl = workloads::make_g721();
  const auto img = link::link_program(wl.module, {}, {});
  cache::CacheConfig ccfg;
  ccfg.size_bytes = static_cast<uint32_t>(state.range(0));
  wcet::AnalyzerConfig acfg;
  acfg.cache = ccfg;
  for (auto _ : state)
    benchmark::DoNotOptimize(wcet::analyze_wcet(img, acfg));
}
BENCHMARK(BM_AnalyzeG721Cache)->Arg(256)->Arg(8192);

} // namespace

int main(int argc, char** argv) {
  using namespace spmwcet;
  const auto [spm, cc] = bench::run_sweep_pair("g721");

  bench::print_header("Figure 3a: G.721 with scratchpad (ACET and WCET)");
  harness::to_table("G.721", harness::MemSetup::Scratchpad, spm)
      .render(std::cout);
  std::cout << "\n";

  bench::print_header(
      "Figure 3b: G.721 with unified direct-mapped cache (ACET and WCET)");
  harness::to_table("G.721", harness::MemSetup::Cache, cc).render(std::cout);
  std::cout << "\n";

  return bench::run_benchmarks(argc, argv);
}
