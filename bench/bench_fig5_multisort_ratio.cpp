// Figure 5 of the paper: WCET/ACET ratio for the MultiSort benchmark,
// scratchpad vs cache. The scratchpad ratio is higher in absolute terms
// than for G.721 (typical input is far from the quadratic worst case) but
// stays flat across sizes; the cache ratio grows with cache size.
#include "bench_common.h"

namespace {

using namespace spmwcet;

void BM_MultiSortSweepPoint(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bench::cold_point("multisort", harness::MemSetup::Cache, 1024));
}
BENCHMARK(BM_MultiSortSweepPoint);

} // namespace

int main(int argc, char** argv) {
  using namespace spmwcet;
  const auto [spm, cc] = bench::run_sweep_pair("multisort");

  bench::print_header(
      "Figure 5: MultiSort WCET/ACET ratio, scratchpad vs cache");
  bench::print_ratio_table("MultiSort", spm, cc);

  std::cout << "\nFull series (absolute cycles):\n\n";
  harness::to_table("MultiSort", harness::MemSetup::Scratchpad, spm)
      .render(std::cout);
  std::cout << "\n";
  harness::to_table("MultiSort", harness::MemSetup::Cache, cc)
      .render(std::cout);
  std::cout << "\n";

  return bench::run_benchmarks(argc, argv);
}
