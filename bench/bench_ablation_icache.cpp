// Future-work ablation (paper Section 5): instruction-only cache instead of
// the unified cache. With data traffic kept out of the cache, the MUST
// analysis is no longer clobbered by unknown-address data accesses, so the
// WCET bound should tighten — at the price of uncached data in simulation.
#include "bench_common.h"

#include "link/layout.h"
#include "sim/simulator.h"
#include "support/thread_pool.h"
#include "wcet/analyzer.h"

namespace {

using namespace spmwcet;

void BM_IcacheAnalysis(benchmark::State& state) {
  const auto wl = workloads::make_g721();
  const auto img = link::link_program(wl.module, {}, {});
  cache::CacheConfig ccfg;
  ccfg.size_bytes = 1024;
  ccfg.unified = false;
  wcet::AnalyzerConfig acfg;
  acfg.cache = ccfg;
  for (auto _ : state)
    benchmark::DoNotOptimize(wcet::analyze_wcet(img, acfg));
}
BENCHMARK(BM_IcacheAnalysis);

} // namespace

int main(int argc, char** argv) {
  using namespace spmwcet;
  const auto wl = workloads::make_g721();
  const auto img = link::link_program(wl.module, {}, {});

  bench::print_header(
      "Ablation: unified vs instruction-only cache (G.721)");
  TablePrinter table({"cache [bytes]", "sim unified", "WCET unified",
                      "ratio", "sim icache", "WCET icache", "ratio "});
  const std::vector<uint32_t> sizes = {64, 256, 1024, 4096, 8192};

  // The (size × unified) grid is 10 independent sim+analysis runs; fill it
  // in parallel with slot-indexed writes, then print in size order.
  struct Cell {
    uint64_t sim = 0;
    uint64_t wcet = 0;
  };
  std::vector<Cell> cells(sizes.size() * 2);
  support::ThreadPool(/*jobs=*/0).for_each(cells.size(), [&](std::size_t i) {
    cache::CacheConfig ccfg;
    ccfg.size_bytes = sizes[i / 2];
    ccfg.unified = i % 2 == 0;
    sim::SimConfig scfg;
    scfg.cache = ccfg;
    wcet::AnalyzerConfig acfg;
    acfg.cache = ccfg;
    cells[i] = {sim::simulate(img, scfg).cycles, wcet::analyze_wcet(img, acfg).wcet};
  });

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    std::vector<std::string> row;
    row.push_back(TablePrinter::fmt(static_cast<uint64_t>(sizes[si])));
    for (const Cell& c : {cells[si * 2], cells[si * 2 + 1]}) {
      row.push_back(TablePrinter::fmt(c.sim));
      row.push_back(TablePrinter::fmt(c.wcet));
      row.push_back(TablePrinter::fmt(
          static_cast<double>(c.wcet) / static_cast<double>(c.sim), 3));
    }
    table.add_row(row);
  }
  table.render(std::cout);
  std::cout << "\n";

  return bench::run_benchmarks(argc, argv);
}
