// Analyzer performance microbenchmarks: throughput of each pipeline stage
// (CFG reconstruction, value analysis, cache analysis, IPET) and of the
// simulator, measured on the G.721 binary.
#include "bench_common.h"

#include "link/layout.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"
#include "wcet/ipet.h"
#include "wcet/loops.h"
#include "wcet/value_analysis.h"

namespace {

using namespace spmwcet;

const link::Image& g721_image() {
  static const link::Image img = [] {
    const auto wl = workloads::make_g721();
    return link::link_program(wl.module, {}, {});
  }();
  return img;
}

void BM_CfgReconstruction(benchmark::State& state) {
  const link::Image& img = g721_image();
  for (auto _ : state)
    for (const uint32_t f : wcet::reachable_functions(img, img.entry))
      benchmark::DoNotOptimize(wcet::build_cfg(img, f));
}
BENCHMARK(BM_CfgReconstruction);

void BM_LoopDetection(benchmark::State& state) {
  const link::Image& img = g721_image();
  std::vector<wcet::Cfg> cfgs;
  for (const uint32_t f : wcet::reachable_functions(img, img.entry))
    cfgs.push_back(wcet::build_cfg(img, f));
  for (auto _ : state)
    for (const auto& cfg : cfgs)
      benchmark::DoNotOptimize(wcet::find_loops(cfg));
}
BENCHMARK(BM_LoopDetection);

void BM_ValueAnalysis(benchmark::State& state) {
  const link::Image& img = g721_image();
  const auto ann = wcet::Annotations::from_image(img);
  std::vector<wcet::Cfg> cfgs;
  for (const uint32_t f : wcet::reachable_functions(img, img.entry))
    cfgs.push_back(wcet::build_cfg(img, f));
  for (auto _ : state)
    for (auto& cfg : cfgs) {
      wcet::resolve_memory(img, cfg, ann);
      benchmark::DoNotOptimize(cfg);
    }
}
BENCHMARK(BM_ValueAnalysis);

void BM_CacheAnalysisMustOnly(benchmark::State& state) {
  const link::Image& img = g721_image();
  const auto ann = wcet::Annotations::from_image(img);
  std::map<uint32_t, wcet::Cfg> cfgs;
  for (const uint32_t f : wcet::reachable_functions(img, img.entry)) {
    auto& cfg = cfgs.emplace(f, wcet::build_cfg(img, f)).first->second;
    wcet::resolve_memory(img, cfg, ann);
  }
  wcet::CacheAnalysisConfig ccfg;
  ccfg.cache.size_bytes = static_cast<uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        wcet::analyze_cache(img, cfgs, img.entry, ccfg));
}
BENCHMARK(BM_CacheAnalysisMustOnly)->Arg(256)->Arg(8192);

void BM_FullWcetNoCache(benchmark::State& state) {
  const link::Image& img = g721_image();
  for (auto _ : state)
    benchmark::DoNotOptimize(wcet::analyze_wcet(img, {}));
}
BENCHMARK(BM_FullWcetNoCache);

void BM_FullWcetWithCache(benchmark::State& state) {
  const link::Image& img = g721_image();
  cache::CacheConfig ccfg;
  ccfg.size_bytes = 1024;
  wcet::AnalyzerConfig acfg;
  acfg.cache = ccfg;
  for (auto _ : state)
    benchmark::DoNotOptimize(wcet::analyze_wcet(img, acfg));
}
BENCHMARK(BM_FullWcetWithCache);

void BM_SimulationG721(benchmark::State& state) {
  const link::Image& img = g721_image();
  for (auto _ : state) {
    const auto run = sim::simulate(img, {});
    benchmark::DoNotOptimize(run.cycles);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.items_processed() +
                             static_cast<int64_t>(run.instructions)));
  }
}
BENCHMARK(BM_SimulationG721);

} // namespace

int main(int argc, char** argv) {
  spmwcet::bench::print_header(
      "Analyzer & simulator performance (G.721 binary)");
  return spmwcet::bench::run_benchmarks(argc, argv);
}
