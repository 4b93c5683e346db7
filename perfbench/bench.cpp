#include "bench.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "workloads/workload.h"

namespace perfbench {

const std::vector<uint32_t>& paper_sizes() {
  static const std::vector<uint32_t> sizes =
      spmwcet::harness::SweepConfig{}.sizes;
  return sizes;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-eval",
                                                 "serve-mixed"};
  return names;
}

namespace {

/// splitmix64: the benchmark's only source of randomness, so a seed names
/// the same inputs on every platform.
uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform draw in [0, n) by rejection, so no residue class is favoured.
uint64_t draw_below(uint64_t& state, uint64_t n) {
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  for (;;) {
    const uint64_t x = splitmix64(state);
    if (x < limit) return x % n;
  }
}

template <typename T> void shuffle(std::vector<T>& xs, uint64_t& state) {
  for (std::size_t i = xs.size(); i > 1; --i)
    std::swap(xs[i - 1], xs[draw_below(state, i)]);
}

void add_series(std::vector<PointKey>& out, const std::string& program,
                MemSetup setup) {
  for (const uint32_t size : paper_sizes()) out.push_back({program, setup, size});
}

} // namespace

Workload make_workload(const std::string& name, uint64_t seed, uint32_t slice) {
  Workload wl;
  wl.name = name;
  // Mix the seed once so neighbouring seeds give unrelated inputs.
  uint64_t state = seed ^ 0x5bd1e9955bd1e995ull;
  if (name == "paper-eval") {
    // The paper's evaluation has fixed inputs; the seed is unused.
    wl.kind = Kind::PaperEval;
    wl.programs = spmwcet::workloads::paper_benchmark_names();
    if (slice > 0 && slice < wl.programs.size()) wl.programs.resize(slice);
    for (const std::string& p : wl.programs) {
      add_series(wl.points, p, MemSetup::Scratchpad);
      add_series(wl.points, p, MemSetup::Cache);
    }
  } else if (name == "serve-mixed") {
    wl.kind = Kind::ServeMixed;
    const uint32_t pool = slice > 0 ? std::min(slice, kMixedPool) : kMixedPool;
    // A partial Fisher-Yates draw of distinct members of the universe.
    std::vector<uint32_t> seeds(kMixedUniverse);
    for (uint32_t i = 0; i < kMixedUniverse; ++i) seeds[i] = i + 1;
    for (uint32_t i = 0; i < pool; ++i)
      std::swap(seeds[i], seeds[i + draw_below(state, kMixedUniverse - i)]);
    for (uint32_t i = 0; i < pool; ++i) {
      wl.programs.push_back("gen:mixed:" + std::to_string(seeds[i]));
      add_series(wl.points, wl.programs.back(), MemSetup::Scratchpad);
      add_series(wl.points, wl.programs.back(), MemSetup::Cache);
    }
    shuffle(wl.points, state);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return wl;
}

namespace {

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void byte(uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void f64(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    for (const char c : s) byte(static_cast<uint8_t>(c));
    u64(s.size());
  }
};

} // namespace

uint64_t inputs_digest(const Workload& wl) {
  Fnv f;
  f.str(wl.name);
  for (const std::string& p : wl.programs) f.str(p);
  for (const PointKey& k : wl.points) {
    f.str(k.workload);
    f.u64(static_cast<uint64_t>(k.setup));
    f.u64(k.size);
  }
  return f.h;
}

bool same_point(const SweepPoint& a, const SweepPoint& b) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return a.size_bytes == b.size_bytes && a.sim_cycles == b.sim_cycles &&
         a.wcet_cycles == b.wcet_cycles && same_bits(a.ratio, b.ratio) &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.spm_used_bytes == b.spm_used_bytes &&
         same_bits(a.energy_nj, b.energy_nj);
}

uint64_t points_digest(const std::vector<SweepPoint>& pts) {
  Fnv f;
  for (const SweepPoint& p : pts) {
    f.u64(p.size_bytes);
    f.u64(p.sim_cycles);
    f.u64(p.wcet_cycles);
    f.f64(p.ratio);
    f.u64(p.cache_hits);
    f.u64(p.cache_misses);
    f.u64(p.spm_used_bytes);
    f.f64(p.energy_nj);
  }
  return f.h;
}

std::string series_key(const std::string& program, MemSetup setup) {
  return program + (setup == MemSetup::Scratchpad ? " spm" : " cache");
}

References::References(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string program, setup, hex;
    if (!(fields >> program >> setup >> hex) ||
        (setup != "spm" && setup != "cache") || hex.size() != 16)
      throw std::runtime_error("malformed reference line: " + line);
    digests_[program + " " + setup] = std::stoull(hex, nullptr, 16);
  }
  if (digests_.empty())
    throw std::runtime_error("no reference digests in " + path);
}

bool References::matches(const std::string& program, MemSetup setup,
                         const std::vector<SweepPoint>& pts) const {
  const auto it = digests_.find(series_key(program, setup));
  return it != digests_.end() && it->second == points_digest(pts);
}

uint64_t failed_points(const References& refs, const std::string& program,
                       MemSetup setup, const std::vector<SweepPoint>& pts) {
  if (pts.size() != paper_sizes().size() ||
      !refs.matches(program, setup, pts))
    return paper_sizes().size();
  uint64_t failed = 0;
  for (const SweepPoint& p : pts)
    if (p.wcet_cycles < p.sim_cycles) ++failed;
  return failed;
}

uint64_t check_points(const Workload& wl, const std::vector<SweepPoint>& pts,
                      const std::vector<bool>& answered,
                      const References& refs) {
  // series key -> size -> index; the inner map orders a series by size,
  // which is the ladder order the digests were recorded in.
  std::map<std::string, std::map<uint32_t, std::size_t>> series;
  for (std::size_t i = 0; i < wl.points.size(); ++i)
    series[series_key(wl.points[i].workload, wl.points[i].setup)]
          [wl.points[i].size] = i;
  uint64_t failed = 0;
  for (const auto& [key, by_size] : series) {
    std::vector<SweepPoint> ordered;
    bool complete = true;
    for (const auto& [size, i] : by_size) {
      complete = complete && answered[i];
      ordered.push_back(pts[i]);
    }
    const PointKey& first = wl.points[by_size.begin()->second];
    failed += complete
                  ? failed_points(refs, first.workload, first.setup, ordered)
                  : by_size.size();
  }
  return failed;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"points_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p99", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"workloads.lower_ms", "ms"},
      {"link.ms", "ms"},
      {"link.calls", "count"},
      {"alloc.ms", "ms"},
      {"alloc.calls", "count"},
      {"program.decode_ms", "ms"},
      {"sim.construct_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.validate_ms", "ms"},
      {"sim.instructions", "count"},
      {"sim.ns_per_instr", "ns"},
      {"harness.energy_ms", "ms"},
      {"wcet.shape_ms", "ms"},
      {"wcet.bind_ms", "ms"},
      {"wcet.analyze_ms", "ms"},
      {"wcet.analyses", "count"},
      {"wcet.ipet_hit_ratio", "ratio"},
      {"wcet.flat_cache_runs", "count"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"harness.artifact_hit_ratio.profile", "ratio"},
      {"harness.artifact_hit_ratio.image", "ratio"},
      {"harness.artifact_hit_ratio.shape", "ratio"},
      {"harness.artifact_hit_ratio.view", "ratio"},
      {"harness.artifact_hit_ratio.ipet", "ratio"},
      {"harness.points", "count"},
      {"harness.batch_ms", "ms"},
      {"harness.unattributed_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"api.engine_point_ms_p50", "ms"},
      {"api.transport_ms_p50", "ms"},
      {"api.admission_waits", "count"},
      {"api.response_hits", "count"},
  };
  return defs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name)
    if (!((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
          (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-'))
      return false;
  return true;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[lo + 1] - xs[lo]);
}

double peak_rss_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
  return 0.0;
}

} // namespace perfbench
