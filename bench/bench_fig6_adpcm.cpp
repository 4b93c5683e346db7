// Figure 6 of the paper: ADPCM absolute ACET and WCET for scratchpad and
// cache configurations. Expected shape: the scratchpad wins in absolute
// ACET and WCET especially at small sizes (a too-small cache thrashes);
// the WCET/ACET deviation stays low overall for this nearly-single-path
// benchmark, but grows for the cache at large sizes.
#include "bench_common.h"

namespace {

using namespace spmwcet;

void BM_AdpcmSpmPoint(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bench::cold_point("adpcm", harness::MemSetup::Scratchpad, 512));
}
BENCHMARK(BM_AdpcmSpmPoint);

} // namespace

int main(int argc, char** argv) {
  using namespace spmwcet;
  const auto [spm, cc] = bench::run_sweep_pair("adpcm");

  bench::print_header("Figure 6a: ADPCM with scratchpad (ACET and WCET)");
  harness::to_table("ADPCM", harness::MemSetup::Scratchpad, spm)
      .render(std::cout);
  std::cout << "\n";
  bench::print_header("Figure 6b: ADPCM with cache (ACET and WCET)");
  harness::to_table("ADPCM", harness::MemSetup::Cache, cc).render(std::cout);
  std::cout << "\n";

  bench::print_header("Figure 6 summary: ratio comparison");
  bench::print_ratio_table("ADPCM", spm, cc);
  std::cout << "\n";

  return bench::run_benchmarks(argc, argv);
}
