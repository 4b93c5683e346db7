// Shared helpers for the per-figure benchmark binaries.
//
// Every binary prints the paper-style table(s) for its figure first, then
// runs its registered google-benchmark timings (analysis throughput), so
// `for b in build/bench/*; do $b; done` regenerates the whole evaluation.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "api/engine.h"
#include "harness/experiment.h"
#include "harness/report.h"

namespace spmwcet::bench {

struct SweepPair {
  std::vector<harness::SweepPoint> spm;
  std::vector<harness::SweepPoint> cache;
};

/// Runs a benchmark's scratchpad and cache sweeps as one evaluation batch
/// (2 setups × 8 sizes = 16 points) on an Engine over all hardware
/// threads, which shares the allocation profile across all SPM sizes.
inline SweepPair run_sweep_pair(const std::string& workload) {
  api::Engine engine(api::EngineOptions{/*jobs=*/0});
  api::EvalResult r =
      engine.eval(api::EvalRequest::make({workload}).value_or_throw())
          .value_or_throw();
  return {std::move(r.results[0].spm), std::move(r.results[0].cache)};
}

/// One point on a fresh Engine: nothing but the lowered workload carries
/// over from an earlier call, so a timed loop measures the whole pipeline.
inline harness::SweepPoint cold_point(const std::string& workload,
                                      harness::MemSetup setup,
                                      uint32_t size_bytes) {
  api::Engine engine;
  return engine
      .point(api::PointRequest::make(workload, setup, size_bytes)
                 .value_or_throw())
      .value_or_throw()
      .point;
}

inline void print_header(const std::string& what) {
  std::cout << "==============================================================\n"
            << what << "\n"
            << "==============================================================\n";
}

/// Prints WCET/ACET ratio series for SPM vs cache side by side (the shape
/// of the paper's Figures 4 and 5), via the harness's shared renderer so
/// the bench output matches `spmwcet sweep all` byte for byte.
inline void print_ratio_table(const std::string& benchmark,
                              const std::vector<harness::SweepPoint>& spm,
                              const std::vector<harness::SweepPoint>& cache) {
  harness::ratio_table(benchmark, spm, cache).render(std::cout);
}

inline int run_benchmarks(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

} // namespace spmwcet::bench
