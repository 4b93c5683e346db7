// Engine API v1 — the session object behind every harness entry point.
//
// An Engine owns everything a resident service needs to amortize across
// requests: the persistent worker pool (through harness::run_matrix, one
// pool per width for the whole process), the memoized WorkloadRegistry
// (MiniC → module lowering runs once per benchmark per process), a
// cross-request ArtifactCache (canonical records, canonical runs with their
// candidate tables, and placed SPM points survive between requests, not
// just within one batch), and a response cache (the pipeline is
// deterministic, so identical requests are served the stored result). A cold first request pays lowering + profiling +
// pipeline; warm requests pay only what is genuinely new.
//
// The entry points — point()/sweep()/eval()/corpus()/simbench()/
// wcetbench() — consume the validated immutable values from api/request.h
// and return Result<T>; errors come back as structured ApiError, never as
// exceptions. This is the surface the wire codec and the CLI speak.
//
// Thread safety: an Engine is safe for concurrent request execution — the
// socket serve front ends drive one shared Engine from one thread per
// connection. The artifact/response caches are Memoizer-backed (per-entry
// once semantics), the workload pin table is mutex-guarded, and the
// request/hit counters are atomic. Admission control bounds how many
// requests execute simultaneously (EngineOptions::max_inflight): excess
// requests queue FIFO-ish on a condition variable instead of oversubscribing
// the machine, which is what lets N clients interleave on one shared pool.
// Batch parallelism (sweep/eval with jobs > 1) still serializes at the
// process-wide ThreadPool; point requests execute inline on the calling
// thread and therefore overlap freely.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/request.h"
#include "harness/artifact_cache.h"
#include "harness/report.h"
#include "support/memoize.h"
#include "workloads/workload.h"

namespace spmwcet::api {

struct EngineOptions {
  /// Worker threads for sweep/eval batches: 1 = serial, 0 = all hardware
  /// threads. Points of a batch fan out over the process-wide persistent
  /// pool of this width.
  unsigned jobs = 1;
  /// Serve identical repeated requests from the response cache. Sound for
  /// this pipeline (it is deterministic by construction — the parity and
  /// golden suites pin that); disable to force re-execution.
  bool cache_responses = true;
  /// Maximum resident entries per response cache (point/sweep/eval each),
  /// evicting least-recently-used responses beyond it; 0 = unbounded. The
  /// default comfortably holds the whole paper request vocabulary while
  /// bounding a resident service against adversarial request streams.
  std::size_t response_cache_capacity = 1024;
  /// Bounded admission: at most this many requests execute at once; the
  /// rest wait (admission_waits counts them). 0 = one slot per hardware
  /// thread — concurrent clients then interleave without oversubscribing
  /// the machine, since each admitted request either runs inline (point)
  /// or serializes at the shared pool (batch ops).
  unsigned max_inflight = 0;
  /// Load shedding: the longest a request may queue at the admission gate
  /// before it is rejected with ErrorCode::Overloaded instead of executing
  /// (EngineStats::shed counts rejections). 0 = wait indefinitely, the
  /// historical behavior. A request with a deadline never waits past its
  /// remaining budget regardless of this setting.
  uint32_t max_queue_wait_ms = 0;
};

/// One pipeline point, echoing the request coordinates (options included,
/// so a renderer can reproduce the CLI's one-point report verbatim).
struct PointResult {
  std::string workload;
  MemSetup setup = MemSetup::Scratchpad;
  uint32_t size_bytes = 0;
  ExperimentOptions options;
  harness::SweepPoint point;
};

/// One size sweep per requested workload, in request order.
struct SweepResult {
  struct Series {
    std::string workload;
    std::vector<harness::SweepPoint> points;
  };
  MemSetup setup = MemSetup::Scratchpad;
  std::vector<Series> series;
};

/// The full both-setup evaluation (consumed by harness::render_evaluation).
struct EvalResult {
  std::vector<harness::EvaluationResult> results;
};

/// Aggregate statistics over a generated-workload corpus: per requested
/// size, min/mean/max of WCET, WCET/ACET ratio and energy across the
/// seed range. The corpus-wide cycle totals double as a determinism
/// probe — any divergence anywhere in the population moves them.
struct CorpusResult {
  struct SizeStats {
    uint32_t size_bytes = 0;
    uint64_t wcet_min = 0;
    uint64_t wcet_max = 0;
    double wcet_mean = 0.0;
    double ratio_min = 0.0;
    double ratio_mean = 0.0;
    double ratio_max = 0.0;
    double energy_min_nj = 0.0;
    double energy_mean_nj = 0.0;
    double energy_max_nj = 0.0;
  };
  std::string shape;
  uint32_t base_seed = 0;
  uint32_t count = 0;
  MemSetup setup = MemSetup::Scratchpad;
  ExperimentOptions options;
  std::vector<uint32_t> sizes;
  std::vector<SizeStats> stats; ///< one entry per size, request order
  uint64_t total_sim_cycles = 0;  ///< sum over all (member, size) points
  uint64_t total_wcet_cycles = 0; ///< sum over all (member, size) points
};

/// Simulator throughput: one row per benchmark, each timing the run the
/// pipeline executes (the canonical image's profiled run).
struct SimBenchResult {
  struct Row {
    std::string benchmark;
    uint64_t instructions = 0;
    double best_seconds = 0.0;
    double instr_per_second = 0.0;
    /// Every timed run served SP-relative accesses through the block
    /// tier's proven stack window (Simulator::stack_window_active).
    bool stack_window = false;
    /// Instructions a timed run retired outside the compiled blocks
    /// (Simulator::fallback_instructions); 0 for every simbench program.
    uint64_t fallback_instructions = 0;
  };
  uint32_t repeat = 0;
  std::vector<Row> rows;
  double aggregate_ips = 0.0; ///< all rows: instructions / seconds
};

/// Analyzer throughput: one row per (benchmark, setup), where one
/// "analysis" is the WCET analysis of one sweep point and a row measures a
/// full sweep-shaped pass (all 8 paper sizes of that setup). The
/// "cache-warm" row times the 8 cache sizes on a view bound, and with IPET
/// skeletons built, before timing starts: the warm cache point alone.
struct WcetBenchResult {
  struct Row {
    std::string benchmark;
    /// "spm", "cache", "cache+pers" or "cache-warm"
    std::string setup = "spm";
    uint32_t analyses = 0;     ///< points per pass (the 8 paper sizes)
    double best_seconds = 0.0; ///< best pass wall time
    double analyses_per_second = 0.0;
  };
  uint32_t repeat = 0;
  std::vector<Row> rows;
  double aggregate_aps = 0.0; ///< all rows: total analyses / total seconds
};

/// Cache observability, surfaced by `serve` stderr logs and the bench mode.
struct EngineStats {
  uint64_t requests = 0;       ///< request-API calls served
  uint64_t response_hits = 0;  ///< served straight from the response cache
  uint64_t response_evictions = 0; ///< responses dropped by the LRU cap
  uint64_t admission_waits = 0; ///< requests that queued at the admission gate
  uint64_t shed = 0; ///< requests rejected at the gate (Overloaded/deadline)
  support::MemoStats profile_artifacts; ///< canonical runs (misses = runs)
  support::MemoStats image_artifacts; ///< canonical records (image, decode,
                                      ///< block table)
  support::MemoStats shape_artifacts;   ///< invariant analyzer skeletons
  support::MemoStats view_artifacts;    ///< bound analyzer front ends
  support::MemoStats ipet_artifacts;    ///< per-workload IPET skeleton stores
  support::MemoStats reuse_artifacts; ///< all-geometry cache tables (misses
                                      ///< = observed runs)
  /// Placed SPM points: misses = distinct placements priced and analyzed,
  /// WCET-driven greedy trials included.
  support::MemoStats placement_artifacts;
  /// IPET skeleton builds/hits/memo hits/fallbacks summed over the
  /// per-workload stores: hits > 0 with no fallbacks shows the skeletons
  /// served the solves.
  wcet::IpetCacheStats ipet_skeletons;
};

class Engine {
public:
  explicit Engine(EngineOptions opts = {});

  Result<PointResult> point(const PointRequest& req);
  Result<SweepResult> sweep(const SweepRequest& req);
  Result<EvalResult> eval(const EvalRequest& req);
  Result<CorpusResult> corpus(const CorpusRequest& req);
  Result<SimBenchResult> simbench(const SimBenchRequest& req);
  Result<WcetBenchResult> wcetbench(const WcetBenchRequest& req);

  EngineStats stats() const;
  const EngineOptions& options() const { return opts_; }

private:
  /// Registry lookup + lifetime pin; UnknownWorkload on failure (requests
  /// are pre-validated, so a miss here means the registry and the request
  /// vocabulary diverged — still reported, never thrown).
  Result<std::shared_ptr<const workloads::WorkloadInfo>>
  resolve(const std::string& name);

  harness::SweepConfig config_for(MemSetup setup,
                                  const std::vector<uint32_t>& sizes,
                                  const ExperimentOptions& options);

  SimBenchResult measure_simbench(const SimBenchRequest& req);
  WcetBenchResult measure_wcetbench(const WcetBenchRequest& req);

  /// Keeps `wl` alive for the Engine's lifetime. The artifact cache is
  /// keyed by workload address, so pins are keyed the same way: two
  /// distinct instances that happen to share a display name must both stay
  /// pinned, or a recycled allocation could alias a stale cache entry.
  /// Mutex-guarded: connection threads pin concurrently.
  void pin(const std::shared_ptr<const workloads::WorkloadInfo>& wl) {
    const std::lock_guard<std::mutex> lk(pins_mu_);
    pins_[wl.get()] = wl;
  }

  /// Counting-semaphore admission gate (see EngineOptions::max_inflight).
  /// A Ticket is the RAII admission slot; every request-API entry point
  /// holds one for the duration of its execution, cache hits included —
  /// the gate bounds concurrency, it does not prioritize. A Ticket with a
  /// bounded wait may come back un-admitted (admitted() == false): the
  /// request was shed and must not execute.
  class AdmissionGate {
  public:
    explicit AdmissionGate(unsigned limit) : limit_(limit) {}

    class Ticket {
    public:
      /// `wait_ms` bounds the queueing time: < 0 waits indefinitely, 0
      /// admits only a free slot, > 0 gives up (sheds) after that long.
      explicit Ticket(AdmissionGate& gate, int64_t wait_ms = -1)
          : gate_(gate), admitted_(gate.enter(wait_ms)) {}
      ~Ticket() {
        if (admitted_) gate_.leave();
      }
      Ticket(const Ticket&) = delete;
      Ticket& operator=(const Ticket&) = delete;

      bool admitted() const { return admitted_; }

    private:
      AdmissionGate& gate_;
      const bool admitted_;
    };

    uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }
    uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

  private:
    bool enter(int64_t wait_ms) {
      std::unique_lock<std::mutex> lk(mu_);
      if (inflight_ >= limit_) {
        waits_.fetch_add(1, std::memory_order_relaxed);
        const auto free_slot = [&] { return inflight_ < limit_; };
        if (wait_ms < 0) {
          cv_.wait(lk, free_slot);
        } else if (!cv_.wait_for(lk, std::chrono::milliseconds(wait_ms),
                                 free_slot)) {
          shed_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
      }
      ++inflight_;
      return true;
    }
    void leave() {
      {
        const std::lock_guard<std::mutex> lk(mu_);
        --inflight_;
      }
      cv_.notify_one();
    }

    std::mutex mu_;
    std::condition_variable cv_;
    const unsigned limit_;
    unsigned inflight_ = 0;
    std::atomic<uint64_t> waits_{0};
    std::atomic<uint64_t> shed_{0};
  };

  /// The shared response-cache policy: compute, or serve the memoized
  /// result for an identical request key (counting the hit).
  template <typename R>
  Result<R> cached_response(support::Memoizer<std::string, R>& cache,
                            const std::string& key,
                            const std::function<R()>& compute) {
    if (!opts_.cache_responses) return compute();
    bool computed = false;
    const std::shared_ptr<const R> result = cache.get(key, [&] {
      computed = true;
      return compute();
    });
    if (!computed) response_hits_.fetch_add(1, std::memory_order_relaxed);
    return *result;
  }

  EngineOptions opts_;
  AdmissionGate gate_;
  harness::ArtifactCache artifacts_; ///< keyed by pinned workload address
  std::mutex pins_mu_;
  std::map<const void*, std::shared_ptr<const workloads::WorkloadInfo>> pins_;
  // Response caches are LRU-capped (EngineOptions::response_cache_capacity)
  // and the placement memo holds at most
  // ArtifactCache::kPlacementCapacity entries. The per-workload artifact
  // memos stay unbounded: the `gen:` namespace alone names 5 shapes × 2^32
  // seeds, so a resident service fed ever new programs grows with them.
  // Bounding those memos is out of scope here.
  support::Memoizer<std::string, PointResult> point_responses_;
  support::Memoizer<std::string, SweepResult> sweep_responses_;
  support::Memoizer<std::string, EvalResult> eval_responses_;
  support::Memoizer<std::string, CorpusResult> corpus_responses_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> response_hits_{0};
};

} // namespace spmwcet::api
