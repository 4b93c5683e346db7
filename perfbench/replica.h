// The traced replica: the harness's per-point pipeline
// (harness::detail::execute_point with the artifact cache, the IR analyzer,
// the block tier and incremental IPET — the Engine's defaults) re-executed
// as its sequence of public layer calls, each call timed into a span.
//
// The replica mirrors the harness's artifact sharing, so its spans describe
// the work the Engine does rather than a different schedule: per workload
// one canonical no-assignment link, one decode of it, one compiled block
// table and one profiling run; one layout-invariant analyzer shape; one
// bound view shared by every cache size; one IPET skeleton store shared by
// both setups. Its points must be field-equal to the Engine's; the driver
// checks that on every traced batch, so a replica that drifts from the
// production path shows up as a failure rather than as a wrong profile.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "wcet/ipet.h"

namespace perfbench {

enum class Span : uint8_t {
  Lower,        ///< registry lookup, lowering on first touch
  Link,         ///< link::link_program
  Alloc,        ///< alloc::allocate_energy_optimal
  Decode,       ///< program::DecodedImage
  SimConstruct, ///< sim::BlockTable compile + sim::Simulator construction
  SimRun,       ///< sim::Simulator::run
  SimValidate,  ///< expected-output reads through Simulator::read_global
  Energy,       ///< profile-based energy estimate
  WcetShape,    ///< wcet::build_shape
  WcetBind,     ///< wcet::bind_view
  WcetAnalyze,  ///< wcet::analyze_wcet (cache analysis, timing, IPET)
  kCount,
};
inline constexpr std::size_t kSpans = static_cast<std::size_t>(Span::kCount);

/// The per-layer metric a span's time is reported under.
const char* span_metric(Span span);

/// Span totals and layer counts accumulated over one or more batches.
struct Trace {
  std::array<uint64_t, kSpans> ns{};
  std::array<uint64_t, kSpans> calls{};
  uint64_t instructions = 0; ///< simulated, profiling runs included
  uint64_t cache_hits = 0;   ///< simulated, cache-setup points
  uint64_t cache_misses = 0;
  uint64_t points = 0;

  double ms(Span s) const { return static_cast<double>(ns[std::size_t(s)]) / 1e6; }
  uint64_t count(Span s) const { return calls[std::size_t(s)]; }
  double total_ms() const;
  void add(const Trace& other);
};

/// Times one span from construction to destruction.
class ScopedSpan {
public:
  ScopedSpan(Trace& trace, Span span)
      : trace_(trace), span_(static_cast<std::size_t>(span)),
        t0_(Clock::now()) {}
  ~ScopedSpan() {
    trace_.ns[span_] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
    ++trace_.calls[span_];
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  Trace& trace_;
  std::size_t span_;
  Clock::time_point t0_;
};

/// One replica per batch (or serve round), like one Engine per batch: its
/// artifacts live as long as the object.
class Replica {
public:
  explicit Replica(Trace& trace);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Runs one point of the registry workload `program`; throws on a
  /// validation or pipeline error, like the harness.
  SweepPoint point(const std::string& program, MemSetup setup, uint32_t size);

  /// IPET skeleton store counters summed over every workload.
  spmwcet::wcet::IpetCacheStats ipet_stats() const;

private:
  struct Artifacts;
  Artifacts& artifacts(const std::string& program);
  void ensure_canonical(Artifacts& a);
  SweepPoint spm_point(Artifacts& a, uint32_t size);
  SweepPoint cache_point(Artifacts& a, uint32_t size);

  Trace& trace_;
  std::map<std::string, std::unique_ptr<Artifacts>> artifacts_;
};

} // namespace perfbench
