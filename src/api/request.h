// Engine API v1 — immutable, validated request values.
//
// A request is constructed through its static make() factory, which runs
// every validity check (known workload, size ranges, cache geometry, sane
// repeat counts) exactly once and returns Result<Request>; a successfully
// constructed request is immutable and therefore valid for its whole
// lifetime, so the Engine and the wire codec never re-validate. The four
// request kinds mirror the paper workflow surface:
//
//   PointRequest    one (workload, setup, size) pipeline run
//   SweepRequest    one setup, N workloads × M sizes, one pool batch
//   EvalRequest     the full both-setup evaluation (Table 2 + figures)
//   CorpusRequest   a generated-workload seed range through one batch
//   SimBenchRequest simulator-throughput measurement
//
// The option structs deliberately mirror harness::SweepConfig's knobs —
// requests are the typed public spelling of what used to be smeared across
// SweepConfig fields and CLI flag parsing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/api.h"
#include "harness/experiment.h"

namespace spmwcet::api {

using harness::MemSetup;

/// Hard bounds enforced by every factory; sizes are memory capacities in
/// bytes. The paper sweeps 64 B – 8 KiB; the API accepts up to 1 MiB so
/// ablations beyond the paper range stay expressible.
inline constexpr uint32_t kMaxMemBytes = 1u << 20;
inline constexpr uint32_t kMaxSizesPerRequest = 64;
inline constexpr uint32_t kMaxRepeat = 1000;
/// Largest generated-workload corpus one request may fan out (the CI gate
/// runs 100; the cap bounds a single request's memory and batch size).
inline constexpr uint32_t kMaxCorpusCount = 4096;
/// Upper bound for the per-request "deadline_ms" budget (1 hour) — a
/// deadline beyond it is a client bug, not a longer patience.
inline constexpr uint32_t kMaxDeadlineMs = 3'600'000;
/// Largest cache associativity: the largest power of two whose ages fit
/// the cache analysis' byte-wide ages (the flat persistence domain stores
/// assoc + 1 <= 0xff).
inline constexpr uint32_t kMaxCacheAssoc = 128;

/// Per-point pipeline knobs shared by point and sweep requests.
struct ExperimentOptions {
  uint32_t cache_assoc = 1;     ///< cache branch: associativity (pow2)
  bool cache_unified = true;    ///< cache branch: unified vs instruction-only
  bool with_persistence = false;///< cache branch: persistence analysis
  bool wcet_driven_alloc = false; ///< SPM branch: WCET-greedy ablation
};

class PointRequest {
public:
  /// `deadline_ms` bounds the request's wall time (0 = none): the pipeline
  /// checks it cooperatively at stage boundaries and answers
  /// DeadlineExceeded past it. It is an execution budget, not an identity
  /// coordinate — key() deliberately excludes it (only successful results
  /// are cached, and they are deadline-independent).
  static Result<PointRequest> make(std::string workload, MemSetup setup,
                                   uint32_t size_bytes,
                                   ExperimentOptions options = {},
                                   uint32_t deadline_ms = 0);

  const std::string& workload() const { return workload_; }
  MemSetup setup() const { return setup_; }
  uint32_t size_bytes() const { return size_; }
  const ExperimentOptions& options() const { return options_; }
  uint32_t deadline_ms() const { return deadline_ms_; }

  /// Canonical identity string — the Engine's response-cache key. Two
  /// requests with equal keys are guaranteed to produce identical results.
  std::string key() const;

private:
  PointRequest() = default;
  std::string workload_;
  MemSetup setup_ = MemSetup::Scratchpad;
  uint32_t size_ = 0;
  ExperimentOptions options_;
  uint32_t deadline_ms_ = 0;
};

class SweepRequest {
public:
  /// `workloads` preserves order (it is the rendering order); empty is
  /// rejected. Empty `sizes` selects the paper's 64 B – 8 KiB ladder.
  static Result<SweepRequest> make(std::vector<std::string> workloads,
                                   MemSetup setup,
                                   std::vector<uint32_t> sizes = {},
                                   ExperimentOptions options = {},
                                   uint32_t deadline_ms = 0);

  const std::vector<std::string>& workloads() const { return workloads_; }
  MemSetup setup() const { return setup_; }
  const std::vector<uint32_t>& sizes() const { return sizes_; }
  const ExperimentOptions& options() const { return options_; }
  uint32_t deadline_ms() const { return deadline_ms_; }
  std::string key() const;

private:
  SweepRequest() = default;
  std::vector<std::string> workloads_;
  MemSetup setup_ = MemSetup::Scratchpad;
  std::vector<uint32_t> sizes_;
  ExperimentOptions options_;
  uint32_t deadline_ms_ = 0;
};

class EvalRequest {
public:
  /// Empty `workloads` selects the paper's Table 2 set; empty `sizes` the
  /// paper ladder. Both setups always run (that is what an evaluation is).
  static Result<EvalRequest> make(std::vector<std::string> workloads = {},
                                  std::vector<uint32_t> sizes = {},
                                  ExperimentOptions options = {},
                                  uint32_t deadline_ms = 0);

  const std::vector<std::string>& workloads() const { return workloads_; }
  const std::vector<uint32_t>& sizes() const { return sizes_; }
  const ExperimentOptions& options() const { return options_; }
  uint32_t deadline_ms() const { return deadline_ms_; }
  std::string key() const;

private:
  EvalRequest() = default;
  std::vector<std::string> workloads_;
  std::vector<uint32_t> sizes_;
  ExperimentOptions options_;
  uint32_t deadline_ms_ = 0;
};

class CorpusRequest {
public:
  /// A corpus is the seed range [base_seed, base_seed + count) of one
  /// generated-workload shape, swept like any other workload list: one
  /// setup, M sizes, one batch. `shape` must be a gen_shape_names() entry;
  /// the range must stay inside uint32 seeds and `count` within
  /// kMaxCorpusCount. Empty `sizes` selects the paper's 64 B – 8 KiB
  /// ladder.
  static Result<CorpusRequest> make(std::string shape, uint32_t base_seed,
                                    uint32_t count, MemSetup setup,
                                    std::vector<uint32_t> sizes = {},
                                    ExperimentOptions options = {},
                                    uint32_t deadline_ms = 0);

  const std::string& shape() const { return shape_; }
  uint32_t base_seed() const { return base_seed_; }
  uint32_t count() const { return count_; }
  MemSetup setup() const { return setup_; }
  const std::vector<uint32_t>& sizes() const { return sizes_; }
  const ExperimentOptions& options() const { return options_; }
  uint32_t deadline_ms() const { return deadline_ms_; }

  /// The corpus members' canonical names ("gen:<shape>:<seed>"), in seed
  /// order — the workload list the Engine resolves and batches.
  std::vector<std::string> workload_names() const;

  std::string key() const;

private:
  CorpusRequest() = default;
  std::string shape_;
  uint32_t base_seed_ = 1;
  uint32_t count_ = 0;
  MemSetup setup_ = MemSetup::Scratchpad;
  std::vector<uint32_t> sizes_;
  ExperimentOptions options_;
  uint32_t deadline_ms_ = 0;
};

class WcetBenchRequest {
public:
  /// Analyzer-throughput measurement over the paper workloads: per
  /// workload, one sweep-shaped pass per setup (the 8 paper sizes of the
  /// SPM branch against pre-linked placements, the 8 cache sizes — and the
  /// persistence-enabled cache sizes — against the canonical image), best
  /// of `repeat`.
  static Result<WcetBenchRequest> make(uint32_t repeat = 5);

  uint32_t repeat() const { return repeat_; }
  std::string key() const;

private:
  WcetBenchRequest() = default;
  uint32_t repeat_ = 5;
};

class SimBenchRequest {
public:
  /// Simulator-throughput measurement: the canonical image's profiled run
  /// of every simbench workload, best of `repeat`.
  static Result<SimBenchRequest> make(uint32_t repeat = 5);

  uint32_t repeat() const { return repeat_; }
  std::string key() const;

private:
  SimBenchRequest() = default;
  uint32_t repeat_ = 5;
};

/// "spm" / "cache" — the wire spelling of MemSetup.
const char* setup_name(MemSetup setup);

} // namespace spmwcet::api
