// Figure 4 of the paper: ratio of estimated WCET to simulated cycles for
// the G.721 benchmark, scratchpad vs cache, sizes 64 B .. 8 KiB.
//
// Expected shape: near-constant ratio for the scratchpad; a ratio that
// grows with cache size for the cache (the simulation improves, the
// MUST-only bound does not).
#include "bench_common.h"

namespace {

using namespace spmwcet;

void BM_G721RatioPointSpm(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bench::cold_point("g721", harness::MemSetup::Scratchpad, 1024));
}
BENCHMARK(BM_G721RatioPointSpm);

} // namespace

int main(int argc, char** argv) {
  using namespace spmwcet;
  const auto [spm, cc] = bench::run_sweep_pair("g721");

  bench::print_header(
      "Figure 4: G.721 WCET/ACET ratio, scratchpad vs cache");
  bench::print_ratio_table("G.721", spm, cc);

  // Quantify the paper's two claims.
  const double spm_spread = spm.back().ratio / spm.front().ratio;
  const double cache_growth = cc.back().ratio / cc.front().ratio;
  std::cout << "\nscratchpad ratio spread (8K vs 64B): " << spm_spread
            << " (paper: ~constant)\n"
            << "cache ratio growth (8K vs 64B):      " << cache_growth
            << " (paper: grows strongly)\n\n";

  return bench::run_benchmarks(argc, argv);
}
