// Future-work ablation (paper Section 5): how much do stronger cache
// analyses recover? Compares, for the ADPCM benchmark over cache sizes:
//   * MUST-only direct-mapped (the paper's experimental aiT setup),
//   * MUST + persistence,
//   * 2-way and 4-way set-associative LRU with MUST + persistence.
// The paper conjectures that even full cache analysis cannot reach the
// scratchpad's predictability — the scratchpad column is the yardstick.
#include "bench_common.h"

#include "link/layout.h"
#include "sim/simulator.h"
#include "support/thread_pool.h"
#include "wcet/analyzer.h"

namespace {

using namespace spmwcet;

struct Variant {
  const char* label;
  uint32_t assoc;
  bool persistence;
};

void BM_CacheAnalysisPersistence(benchmark::State& state) {
  const auto wl = workloads::make_adpcm();
  const auto img = link::link_program(wl.module, {}, {});
  cache::CacheConfig ccfg;
  ccfg.size_bytes = 1024;
  wcet::AnalyzerConfig acfg;
  acfg.cache = ccfg;
  acfg.with_persistence = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(wcet::analyze_wcet(img, acfg));
}
BENCHMARK(BM_CacheAnalysisPersistence);

} // namespace

int main(int argc, char** argv) {
  using namespace spmwcet;
  const auto wl = workloads::make_adpcm();
  const auto img = link::link_program(wl.module, {}, {});

  const Variant variants[] = {
      {"DM must-only", 1, false},
      {"DM must+persistence", 1, true},
      {"2-way LRU must+pers", 2, true},
      {"4-way LRU must+pers", 4, true},
  };

  bench::print_header(
      "Ablation: cache analysis strength vs WCET bound (ADPCM)");
  TablePrinter table({"cache [bytes]", "sim DM [cycles]",
                      "WCET DM must-only", "WCET DM must+pers",
                      "WCET 2-way must+pers", "WCET 4-way must+pers",
                      "WCET scratchpad (same size)"});
  const std::vector<uint32_t> sizes = {256, 512, 1024, 2048, 4096, 8192};

  // The scratchpad yardstick column is a full pipeline per size; sweep all
  // of them up front through the parallel engine.
  api::Engine engine(api::EngineOptions{/*jobs=*/0});
  const auto spm_points =
      engine
          .sweep(api::SweepRequest::make({"adpcm"},
                                         harness::MemSetup::Scratchpad, sizes)
                     .value_or_throw())
          .value_or_throw()
          .series[0]
          .points;

  // The cache grid — per size, one simulation plus one analysis per
  // variant — is 30 independent runs; fill it with slot-indexed writes.
  constexpr std::size_t kCols = 1 + std::size(variants);
  std::vector<uint64_t> cells(sizes.size() * kCols);
  support::ThreadPool(/*jobs=*/0).for_each(cells.size(), [&](std::size_t i) {
    const uint32_t size = sizes[i / kCols];
    const std::size_t col = i % kCols;
    cache::CacheConfig ccfg;
    ccfg.size_bytes = size;
    if (col == 0) {
      sim::SimConfig scfg;
      scfg.cache = ccfg;
      cells[i] = sim::simulate(img, scfg).cycles;
      return;
    }
    const Variant& v = variants[col - 1];
    ccfg.assoc = v.assoc;
    wcet::AnalyzerConfig acfg;
    acfg.cache = ccfg;
    acfg.with_persistence = v.persistence;
    cells[i] = wcet::analyze_wcet(img, acfg).wcet;
  });

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    std::vector<std::string> row;
    row.push_back(TablePrinter::fmt(static_cast<uint64_t>(sizes[si])));
    for (std::size_t col = 0; col < kCols; ++col)
      row.push_back(TablePrinter::fmt(cells[si * kCols + col]));
    row.push_back(TablePrinter::fmt(spm_points[si].wcet_cycles));
    table.add_row(row);
  }
  table.render(std::cout);
  std::cout << "\n";

  return bench::run_benchmarks(argc, argv);
}
