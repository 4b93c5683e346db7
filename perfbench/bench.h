// Shared vocabulary of the repository benchmark: workload definitions
// derived from a seed, reference digests of point fields, field-exact point
// comparison, the metric name tables and small statistics helpers.
//
// The benchmark only calls the public library surfaces (api::Engine, the
// serve wire protocol and the per-layer functions the harness composes); it
// changes nothing under src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace perfbench {

using spmwcet::harness::MemSetup;
using spmwcet::harness::SweepPoint;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The time point `seconds` from now.
inline Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// ---- Workloads -------------------------------------------------------------

enum class Kind : uint8_t { PaperEval, ServeMixed };

/// The generated programs serve-mixed draws from. Reference digests are
/// recorded for every member, so any seed's inputs are checkable.
inline constexpr uint32_t kMixedUniverse = 1024;
inline constexpr uint32_t kMixedPool = 96; ///< programs per serve round
inline constexpr unsigned kServeConnections = 2;

/// The paper's sweep ladder (64 B .. 8 KiB), the sizes of every point.
const std::vector<uint32_t>& paper_sizes();

/// One point request: registry workload name, setup and size.
struct PointKey {
  std::string workload;
  MemSetup setup = MemSetup::Scratchpad;
  uint32_t size = 0;
};

struct Workload {
  std::string name;
  Kind kind = Kind::PaperEval;
  /// Registry names of every program the workload touches, in batch order.
  std::vector<std::string> programs;
  /// Every point of one batch (paper-eval: eval order) or one serve round
  /// (serve-mixed: the seeded shuffle).
  std::vector<PointKey> points;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the named workload's inputs from `seed`. `slice` > 0 keeps only
/// that many programs (self-tests). Throws on an unknown name.
Workload make_workload(const std::string& name, uint64_t seed,
                       uint32_t slice = 0);

/// Order-sensitive hash of a workload's inputs (programs and point order).
uint64_t inputs_digest(const Workload& wl);

// ---- Point checks ----------------------------------------------------------

/// Field-exact equality (doubles compared bit for bit).
bool same_point(const SweepPoint& a, const SweepPoint& b);

/// FNV-1a over every field of every point, in order.
uint64_t points_digest(const std::vector<SweepPoint>& pts);

/// "<program> <spm|cache>": the key of one recorded series.
std::string series_key(const std::string& program, MemSetup setup);

/// Reference digests recorded with `perfbench --record`, one per series.
class References {
public:
  /// Loads the reference file; throws when it is missing or malformed.
  explicit References(const std::string& path);

  /// True when the series matches its recorded digest (false when it
  /// differs or no digest was recorded for it).
  bool matches(const std::string& program, MemSetup setup,
               const std::vector<SweepPoint>& pts) const;

private:
  std::map<std::string, uint64_t> digests_;
};

/// The points of one series, collected from a batch or a serve round, and
/// the checks each point must pass: WCET >= simulated cycles, and the series
/// digest equal to the reference. Returns the number of failed points.
uint64_t failed_points(const References& refs, const std::string& program,
                       MemSetup setup, const std::vector<SweepPoint>& pts);

/// Checks points (parallel to wl.points, in any order) series by series
/// with failed_points; an unanswered point fails its whole series. Returns
/// the number of failed points.
uint64_t check_points(const Workload& wl, const std::vector<SweepPoint>& pts,
                      const std::vector<bool>& answered,
                      const References& refs);

// ---- Metrics ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
/// in the order BENCHMARK.json declares them.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// [A-Za-z0-9_.-]+, the metric name alphabet.
bool valid_metric_name(const std::string& name);

// ---- Statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// Peak resident set of a process in MiB (VmHWM); 0 when unreadable.
double peak_rss_mb(int pid);

} // namespace perfbench
