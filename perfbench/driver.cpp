// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cli PATH --refs PATH [--scratch DIR]
//   perfbench --record PATH
//
// Untraced (--trace 0) runs measure the end-to-end metrics through the
// public surfaces only: api::Engine for paper-eval, a resident
// `spmwcet_cli serve` process over a unix socket for serve-mixed. Traced
// runs (--trace 1) re-execute the same points through the replica
// (replica.h) and report the per-layer split. Timing metrics take the best
// of a run's repeats of the same work (see keep_best). Every point is
// checked: the
// pipeline's own output validation (a typed error), WCET >= simulated
// cycles, and the recorded reference digest of the point fields. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
//
// --record recomputes the reference digests for every program the seeded
// workloads can draw from and writes them to PATH.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "api/engine.h"
#include "api/request.h"
#include "bench.h"
#include "replica.h"
#include "serve_client.h"
#include "wcet/cache_analysis.h"
#include "workloads/workload.h"

namespace {

using namespace perfbench;
namespace api = spmwcet::api;
using spmwcet::workloads::WorkloadRegistry;

/// Set-up repeats per batch run; setup_s is the best of them.
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kMaxSetupRepeats = 500;
constexpr double kSetupSeconds = 0.5;
/// Floors on the samples of one run, however short --seconds is.
constexpr std::size_t kMinBatches = 3;
constexpr std::size_t kMinRounds = 3;
constexpr double kReadyTimeoutS = 60.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string refs;
  std::string scratch = ".bench_build/run";
  std::string record;
};

/// What the run reports: point accounting plus named metrics.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(uint64_t points, const std::string& why) {
    if (points == 0) return;
    failed += points;
    std::cerr << "perfbench: " << points << " failed point(s): " << why << "\n";
  }
};

api::EngineOptions batch_engine_options() {
  api::EngineOptions opts;
  opts.jobs = 1;
  return opts;
}

/// Lowers every program through a cleared registry and returns the seconds
/// it took. The registry keeps the instances, so the batches that follow
/// resolve without lowering.
double lower_all(const std::vector<std::string>& programs) {
  WorkloadRegistry& registry = WorkloadRegistry::instance();
  registry.clear();
  const auto t0 = Clock::now();
  for (const std::string& p : programs) (void)registry.benchmark(p);
  return seconds_since(t0);
}

/// The set-up samples: lower_all at least kSetupRepeats times and until
/// kSetupSeconds have passed, so a cheap set-up gets more samples.
std::vector<double> lower_repeats(const std::vector<std::string>& programs) {
  std::vector<double> out;
  double total = 0.0;
  while (out.size() < kSetupRepeats ||
         (total < kSetupSeconds && out.size() < kMaxSetupRepeats)) {
    out.push_back(lower_all(programs));
    total += out.back();
  }
  return out;
}

/// Host contention only ever adds time, and on a shared machine it comes in
/// bursts of seconds. Every timing metric therefore takes the best of the
/// run's repeats of the same work: the best batch, the best set-up, and for
/// latency each distinct request's best observation, with the percentiles
/// taken over the distinct requests.
constexpr double kUnanswered = std::numeric_limits<double>::infinity();

void keep_best(double& best_ms, double ms) { best_ms = std::min(best_ms, ms); }

double best(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

/// The requests that were answered at least once.
std::vector<double> answered(const std::vector<double>& best_ms) {
  std::vector<double> out;
  for (const double ms : best_ms)
    if (ms != kUnanswered) out.push_back(ms);
  return out;
}

/// The latency sample counts and spread, for the human summary.
void print_latency(const std::vector<double>& best_ms, uint64_t samples) {
  std::cout << "latency samples: " << samples << " over " << best_ms.size()
            << " distinct requests; best ms per request min/p50/p90/p99/max: "
            << quantile(best_ms, 0.0) << " / " << quantile(best_ms, 0.5)
            << " / " << quantile(best_ms, 0.9) << " / "
            << quantile(best_ms, 0.99) << " / " << quantile(best_ms, 1.0)
            << "\n";
}

// ---- paper-eval ------------------------------------------------------------

/// paper-eval is timed as one eval request per benchmark (both setups, 8
/// sizes): the same work as one eval of all three, since every artifact is
/// per benchmark, in units short enough for the best-of estimate to find the
/// host's quiet moments.
struct EvalPass {
  double seconds = 0.0;           ///< sum of the pass's request times
  std::vector<double> request_s;  ///< per benchmark
  std::vector<SweepPoint> points; ///< in wl.points order
  api::EngineStats stats;         ///< the last request's Engine
  std::string error;
};

/// One eval request per benchmark, each on a fresh Engine, as every
/// `sweep <bench>` pair of invocations runs it; only the requests are timed.
EvalPass eval_pass(const Workload& wl) {
  EvalPass pass;
  for (const std::string& program : wl.programs) {
    api::Engine engine(batch_engine_options());
    const api::EvalRequest req =
        api::EvalRequest::make({program}).value_or_throw();
    const auto t0 = Clock::now();
    const api::Result<api::EvalResult> r = engine.eval(req);
    pass.request_s.push_back(seconds_since(t0));
    pass.seconds += pass.request_s.back();
    pass.stats = engine.stats();
    if (!r.ok()) {
      pass.error = r.error().render();
      continue;
    }
    for (const auto& res : r.value().results) {
      pass.points.insert(pass.points.end(), res.spm.begin(), res.spm.end());
      pass.points.insert(pass.points.end(), res.cache.begin(), res.cache.end());
    }
  }
  return pass;
}

/// Failed points of one pass: all of them on an error, else those failing
/// the per-series checks.
uint64_t pass_failures(const Workload& wl, const EvalPass& pass,
                       const References& refs) {
  if (!pass.error.empty() || pass.points.size() != wl.points.size())
    return wl.points.size();
  return check_points(wl, pass.points,
                      std::vector<bool>(pass.points.size(), true), refs);
}

/// Each benchmark's best eval request time over a run.
struct EvalBests {
  explicit EvalBests(const Workload& wl)
      : best_s(wl.programs.size(), kUnanswered) {}
  std::vector<double> best_s;
  std::size_t passes = 0;
  api::EngineStats stats;
};

/// One timed, checked pass; returns its seconds.
double timed_pass(const Workload& wl, const References& refs, EvalBests& acc,
                  Report& rep) {
  const EvalPass pass = eval_pass(wl);
  for (std::size_t i = 0; i < pass.request_s.size(); ++i)
    keep_best(acc.best_s[i], pass.request_s[i]);
  ++acc.passes;
  acc.stats = pass.stats;
  rep.attempted += wl.points.size();
  rep.fail(pass_failures(wl, pass, refs),
           pass.error.empty() ? "eval differs from the reference" : pass.error);
  return pass.seconds;
}

/// The first pass's points, in wl.points order: the reference every later
/// form of the same points must reproduce. Checked against the recorded
/// digests like any pass.
std::vector<SweepPoint> reference_points(const Workload& wl,
                                         const References& refs,
                                         Report& rep) {
  const EvalPass pass = eval_pass(wl);
  if (!pass.error.empty() || pass.points.size() != wl.points.size())
    throw std::runtime_error("reference pass failed: " + pass.error);
  rep.attempted += pass.points.size();
  rep.fail(pass_failures(wl, pass, refs),
           "reference pass differs from the recorded digests");
  return pass.points;
}

/// In-process Engine::point requests over wl.points in batch order, each
/// pass on a fresh Engine and registry as a fresh server would see them
/// (first touches lower and profile). Every answer must equal `ref`.
struct PointPasses {
  explicit PointPasses(std::size_t requests)
      : best_ms(requests, kUnanswered) {}
  std::vector<double> best_ms; ///< per request (wl.points index)
  uint64_t samples = 0;
  std::vector<double> pass_ms; ///< wall time of every complete pass
  api::EngineStats stats;      ///< the last pass's Engine
};

/// One pass; it stops early at `end` unless it is the first.
void point_pass(const Workload& wl, const std::vector<SweepPoint>& ref,
                Clock::time_point end, PointPasses& acc, Report& rep) {
  WorkloadRegistry::instance().clear();
  api::Engine engine;
  const bool first = acc.pass_ms.empty();
  uint64_t mismatched = 0;
  std::size_t i = 0;
  const auto t0 = Clock::now();
  for (; i < wl.points.size() && (first || Clock::now() < end); ++i) {
    const PointKey& k = wl.points[i];
    const api::PointRequest req =
        api::PointRequest::make(k.workload, k.setup, k.size).value_or_throw();
    const auto p0 = Clock::now();
    const api::Result<api::PointResult> r = engine.point(req);
    keep_best(acc.best_ms[i], seconds_since(p0) * 1e3);
    if (!r.ok() || !same_point(r.value().point, ref[i])) ++mismatched;
  }
  if (i == wl.points.size()) acc.pass_ms.push_back(seconds_since(t0) * 1e3);
  acc.stats = engine.stats();
  acc.samples += i;
  rep.attempted += i;
  rep.fail(mismatched, "Engine::point answers differ from the reference");
}

void run_batch(const Options& o, const Workload& wl, const References& refs,
               Report& rep) {
  const std::vector<double> setup = lower_repeats(wl.programs);
  const std::vector<SweepPoint> ref = reference_points(wl, refs, rep);

  // Half the time: eval passes, for throughput.
  EvalBests evals(wl);
  const auto eval_end = after(o.seconds / 2);
  while (evals.passes < kMinBatches || Clock::now() < eval_end)
    timed_pass(wl, refs, evals, rep);
  // The other half: the same points as single requests, for latency.
  PointPasses passes(wl.points.size());
  const auto point_end = after(o.seconds / 2);
  do {
    point_pass(wl, ref, point_end, passes, rep);
  } while (Clock::now() < point_end);
  const std::vector<double> latency_ms = answered(passes.best_ms);

  std::cout << "eval passes: " << evals.passes << " (" << wl.programs.size()
            << " requests, " << wl.points.size()
            << " points each); set-up repeats: " << setup.size() << "\n";
  print_latency(latency_ms, passes.samples);
  rep.set("setup_s", best(setup));
  double best_pass_s = 0.0;
  for (const double s : evals.best_s) best_pass_s += s;
  rep.set("points_per_s", static_cast<double>(wl.points.size()) / best_pass_s);
  rep.set("latency_ms_p50", quantile(latency_ms, 0.5));
  rep.set("latency_ms_p99", quantile(latency_ms, 0.99));
  rep.set("peak_rss_mb", peak_rss_mb(0));
}

// ---- Serve -----------------------------------------------------------------

std::vector<std::string> request_lines(const Workload& wl) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < wl.points.size(); ++i)
    lines.push_back(point_request_line(i + 1, wl.points[i]));
  return lines;
}

std::string socket_path(const Options& o, int n) {
  std::filesystem::create_directories(o.scratch);
  return o.scratch + "/serve-" + std::to_string(::getpid()) + "-" +
         std::to_string(n) + ".sock";
}

struct ServeRound {
  double setup_s = 0.0;
  StreamResult stream;
  double rss_mb = 0.0;
  uint64_t response_hits = 0;
  uint64_t admission_waits = 0;
  std::vector<SweepPoint> points; ///< parallel to the request lines
  std::vector<bool> parsed;       ///< the answer was a point
};

/// One fresh server: start it, wait for `ping`, run the request stream
/// closed-loop, read `health`, stop it.
ServeRound serve_round(const Options& o, const std::vector<std::string>& lines,
                       unsigned connections, int n) {
  ServeRound r;
  ServerProcess server(o.cli, socket_path(o, n));
  r.setup_s = server.wait_ready(kReadyTimeoutS);
  r.stream = run_closed_loop(server.socket_path(), lines, connections);
  const std::string health =
      server.request("{\"v\":1,\"id\":0,\"op\":\"health\"}");
  r.response_hits = health_counter(health, "engine", "response_hits");
  r.admission_waits = health_counter(health, "engine", "admission_waits");
  r.rss_mb = server.peak_rss();
  server.stop();
  r.points.resize(lines.size());
  r.parsed.resize(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    r.parsed[i] = parse_point_response(r.stream.responses[i], r.points[i]);
  return r;
}

/// Folds a round's latencies into the per-request bests; returns how many
/// requests it answered.
uint64_t keep_round_best(std::vector<double>& best_ms, const ServeRound& r) {
  uint64_t n = 0;
  for (std::size_t i = 0; i < best_ms.size(); ++i)
    if (r.stream.latency_ms[i] >= 0) {
      keep_best(best_ms[i], r.stream.latency_ms[i]);
      ++n;
    }
  return n;
}

void run_serve(const Options& o, const Workload& wl, const References& refs,
               Report& rep) {
  const std::vector<std::string> lines = request_lines(wl);
  std::vector<double> setup, rss, rate;
  std::vector<double> best_ms(lines.size(), kUnanswered);
  uint64_t samples = 0;
  const auto end = after(o.seconds);
  for (int n = 0; setup.size() < kMinRounds || Clock::now() < end; ++n) {
    const ServeRound r =
        serve_round(o, lines, kServeConnections, n);
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mb);
    const uint64_t answered_now = keep_round_best(best_ms, r);
    samples += answered_now;
    rate.push_back(static_cast<double>(answered_now) / r.stream.wall_s);
    rep.attempted += lines.size();
    rep.fail(check_points(wl, r.points, r.parsed, refs),
             "serve answers differ from the reference or are errors");
    rep.fail(r.response_hits > 0 ? lines.size() : 0,
             "the response cache answered a request");
  }
  const std::vector<double> latency_ms = answered(best_ms);
  std::cout << "rounds: " << setup.size() << " (" << lines.size()
            << " requests each, " << kServeConnections << " connections)\n";
  print_latency(latency_ms, samples);
  rep.set("setup_s", best(setup));
  rep.set("points_per_s", *std::max_element(rate.begin(), rate.end()));
  rep.set("latency_ms_p50", quantile(latency_ms, 0.5));
  rep.set("latency_ms_p99", quantile(latency_ms, 0.99));
  rep.set("peak_rss_mb", median(rss));
}

// ---- Traced runs -----------------------------------------------------------
//
// A traced run cycles through the same work in four forms until its time is
// up: an untraced eval pass (paper-eval), a pass of in-process
// Engine::point requests, a traced replica batch and a socket round. On a
// shared host, contention comes in bursts; alternating the forms exposes
// them to the same bursts, so their ratios and differences stay meaningful.

double hit_ratio(const spmwcet::support::MemoStats& s) {
  const uint64_t n = s.hits + s.misses;
  return n == 0 ? 0.0 : static_cast<double>(s.hits) / static_cast<double>(n);
}

struct TraceRun {
  explicit TraceRun(std::size_t requests)
      : points(requests), socket_ms(requests, kUnanswered) {}
  Trace trace;                       ///< replica spans, summed over batches
  std::vector<double> replica_ms;    ///< per replica batch
  std::vector<double> overhead;      ///< replica / untraced baseline, per cycle
  spmwcet::wcet::IpetCacheStats ipet;
  uint64_t flat_cache_runs = 0;
  api::EngineStats stats; ///< the artifact counters of an untraced batch
  PointPasses points;
  std::vector<double> socket_ms; ///< per request
  uint64_t response_hits = 0;
  uint64_t admission_waits = 0;
};

/// One traced replica batch on fresh artifacts; every point must equal
/// `ref` field for field. Returns the batch's wall milliseconds.
double replica_batch(const Workload& wl, const std::vector<SweepPoint>& ref,
                     bool fresh_registry, TraceRun& run, Report& rep) {
  const auto flat_runs = [] {
    const auto c = spmwcet::wcet::cache_analysis_counters();
    return c.flat_must_runs + c.flat_persistence_runs;
  };
  if (fresh_registry) WorkloadRegistry::instance().clear();
  const uint64_t flat0 = flat_runs();
  uint64_t mismatched = 0;
  const auto t0 = Clock::now();
  {
    Replica replica(run.trace);
    for (std::size_t i = 0; i < wl.points.size(); ++i) {
      const PointKey& k = wl.points[i];
      try {
        if (!same_point(replica.point(k.workload, k.setup, k.size), ref[i]))
          ++mismatched;
      } catch (const std::exception&) {
        ++mismatched;
      }
    }
    const auto s = replica.ipet_stats();
    run.ipet.builds += s.builds;
    run.ipet.hits += s.hits;
    run.ipet.fallbacks += s.fallbacks;
  }
  const double ms = seconds_since(t0) * 1e3;
  run.replica_ms.push_back(ms);
  run.flat_cache_runs += flat_runs() - flat0;
  rep.attempted += wl.points.size();
  rep.fail(mismatched, "replica points differ from the Engine's");
  return ms;
}

/// One socket round on a fresh server; answers must equal `ref`.
void socket_round(const Options& o, const std::vector<std::string>& lines,
                  const std::vector<SweepPoint>& ref, unsigned connections,
                  int n, TraceRun& run, Report& rep) {
  const ServeRound r = serve_round(o, lines, connections, n);
  uint64_t mismatched = 0;
  for (std::size_t i = 0; i < r.points.size(); ++i)
    if (!r.parsed[i] || !same_point(r.points[i], ref[i])) ++mismatched;
  keep_round_best(run.socket_ms, r);
  run.response_hits += r.response_hits;
  run.admission_waits += r.admission_waits;
  rep.attempted += lines.size();
  rep.fail(mismatched, "serve answers differ from the reference");
  rep.fail(r.response_hits > 0 ? lines.size() : 0,
           "the response cache answered a request");
}

void emit_trace(const TraceRun& run, double lower_ms, Report& rep) {
  const double batches = static_cast<double>(run.replica_ms.size());
  const Trace& t = run.trace;
  rep.set("workloads.lower_ms", lower_ms);
  for (std::size_t s = 0; s < kSpans; ++s)
    if (static_cast<Span>(s) != Span::Lower)
      rep.set(span_metric(static_cast<Span>(s)),
              t.ms(static_cast<Span>(s)) / batches);
  rep.set("link.calls", static_cast<double>(t.count(Span::Link)) / batches);
  rep.set("alloc.calls", static_cast<double>(t.count(Span::Alloc)) / batches);
  rep.set("sim.instructions", static_cast<double>(t.instructions) / batches);
  rep.set("sim.ns_per_instr",
          t.ms(Span::SimRun) * 1e6 / static_cast<double>(t.instructions));
  rep.set("wcet.analyses",
          static_cast<double>(t.count(Span::WcetAnalyze)) / batches);
  const uint64_t ipet_n = run.ipet.hits + run.ipet.builds + run.ipet.fallbacks;
  rep.set("wcet.ipet_hit_ratio",
          ipet_n == 0 ? 0.0
                      : static_cast<double>(run.ipet.hits) /
                            static_cast<double>(ipet_n));
  rep.set("wcet.flat_cache_runs",
          static_cast<double>(run.flat_cache_runs) / batches);
  rep.set("cache.hits", static_cast<double>(t.cache_hits) / batches);
  rep.set("cache.misses", static_cast<double>(t.cache_misses) / batches);

  const api::EngineStats& s = run.stats;
  rep.set("harness.artifact_hit_ratio.profile", hit_ratio(s.profile_artifacts));
  rep.set("harness.artifact_hit_ratio.image", hit_ratio(s.image_artifacts));
  rep.set("harness.artifact_hit_ratio.shape", hit_ratio(s.shape_artifacts));
  rep.set("harness.artifact_hit_ratio.view", hit_ratio(s.view_artifacts));
  rep.set("harness.artifact_hit_ratio.ipet", hit_ratio(s.ipet_artifacts));
  rep.set("harness.points", static_cast<double>(t.points) / batches);
  double wall_sum = 0.0;
  for (const double w : run.replica_ms) wall_sum += w;
  rep.set("harness.batch_ms", best(run.replica_ms));
  rep.set("harness.unattributed_ms", (wall_sum - t.total_ms()) / batches);
  rep.set("trace.overhead_frac", median(run.overhead) - 1.0);

  const double engine_p50 = quantile(answered(run.points.best_ms), 0.5);
  rep.set("api.engine_point_ms_p50", engine_p50);
  rep.set("api.transport_ms_p50",
          quantile(answered(run.socket_ms), 0.5) - engine_p50);
  rep.set("api.admission_waits", static_cast<double>(run.admission_waits));
  rep.set("api.response_hits", static_cast<double>(run.response_hits));
  std::cout << "traced cycles: " << run.replica_ms.size() << "; spans cover "
            << 100.0 * t.total_ms() / wall_sum << "% of traced wall time\n";
}

void trace_batch(const Options& o, const Workload& wl, const References& refs,
                 Report& rep) {
  const std::vector<double> lower = lower_repeats(wl.programs);
  const std::vector<SweepPoint> ref = reference_points(wl, refs, rep);
  const std::vector<std::string> lines = request_lines(wl);
  EvalBests evals(wl);

  TraceRun run(wl.points.size());
  const auto end = after(o.seconds);
  int n = 0;
  do {
    // The replica runs against the registry's lowered programs, like the
    // Engine batch it is compared with.
    lower_all(wl.programs);
    const double engine_s = timed_pass(wl, refs, evals, rep);
    run.stats = evals.stats;
    const double replica_ms = replica_batch(wl, ref, false, run, rep);
    run.overhead.push_back(replica_ms / (engine_s * 1e3));
    point_pass(wl, ref, Clock::time_point::max(), run.points, rep);
    socket_round(o, lines, ref, 1, n++, run, rep);
  } while (Clock::now() < end);
  emit_trace(run, best(lower) * 1e3, rep);
}

void trace_serve(const Options& o, const Workload& wl, const References& refs,
                 Report& rep) {
  // The first round's answers, digest-checked, are the reference every
  // later form must reproduce.
  const std::vector<std::string> lines = request_lines(wl);
  const ServeRound first = serve_round(o, lines, kServeConnections, 0);
  rep.attempted += lines.size();
  rep.fail(check_points(wl, first.points, first.parsed, refs),
           "serve answers differ from the reference or are errors");
  const std::vector<SweepPoint> ref = first.points;

  TraceRun run(wl.points.size());
  const auto end = after(o.seconds);
  int n = 1;
  do {
    point_pass(wl, ref, Clock::time_point::max(), run.points, rep);
    run.stats = run.points.stats;
    const double replica_ms = replica_batch(wl, ref, true, run, rep);
    run.overhead.push_back(replica_ms / run.points.pass_ms.back());
    socket_round(o, lines, ref, kServeConnections, n++, run, rep);
  } while (Clock::now() < end);
  const double rounds = static_cast<double>(run.replica_ms.size());
  emit_trace(run, run.trace.ms(Span::Lower) / rounds, rep);
}

// ---- Output ----------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints the human summary and the final JSON line. Every declared metric
/// of the run's kind must be present, and nothing else.
void emit(const Report& rep, const std::vector<MetricDef>& defs) {
  std::set<std::string> declared;
  for (const MetricDef& d : defs) declared.insert(d.name);
  for (const auto& [name, value] : rep.metrics)
    if (!declared.count(name))
      throw std::runtime_error("undeclared metric " + name);
  std::ostringstream js;
  js << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = rep.metrics.find(d.name);
    if (it == rep.metrics.end())
      throw std::runtime_error(std::string("metric not measured: ") + d.name);
    std::cout << "  " << d.name << " = " << number(it->second) << " " << d.unit
              << "\n";
    js << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << number(it->second) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// ---- Reference recording ---------------------------------------------------

int record(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# Reference digests of the benchmark's point fields: FNV-1a 64 over\n"
         "# every SweepPoint field of one (program, setup) series at the\n"
         "# paper sizes 64..8192 B. Regenerate with `perfbench --record`.\n";
  const auto emit_series = [&](const std::vector<std::string>& programs,
                               MemSetup setup) {
    constexpr std::size_t kChunk = 64;
    for (std::size_t at = 0; at < programs.size(); at += kChunk) {
      const std::vector<std::string> chunk(
          programs.begin() + static_cast<std::ptrdiff_t>(at),
          programs.begin() +
              static_cast<std::ptrdiff_t>(std::min(at + kChunk, programs.size())));
      WorkloadRegistry::instance().clear();
      api::EngineOptions opts;
      opts.jobs = 0;
      api::Engine engine(opts);
      const api::SweepResult r =
          engine.sweep(api::SweepRequest::make(chunk, setup).value_or_throw())
              .value_or_throw();
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          points_digest(r.series[i].points)));
        out << series_key(chunk[i], setup) << " " << hex << "\n";
      }
    }
  };
  const auto gen = [](const char* shape, uint32_t n) {
    std::vector<std::string> names;
    for (uint32_t s = 1; s <= n; ++s)
      names.push_back(std::string("gen:") + shape + ":" + std::to_string(s));
    return names;
  };
  for (const MemSetup setup : {MemSetup::Scratchpad, MemSetup::Cache}) {
    emit_series(spmwcet::workloads::paper_benchmark_names(), setup);
    emit_series(gen("mixed", kMixedUniverse), setup);
  }
  return out ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value after " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--cli") o.cli = v;
    else if (arg == "--refs") o.refs = v;
    else if (arg == "--scratch") o.scratch = v;
    else if (arg == "--record") o.record = v;
    else throw std::runtime_error("unknown argument " + arg);
  }
  if (o.record.empty() && (o.workload.empty() || o.cli.empty() || o.refs.empty()))
    throw std::runtime_error("--workload, --cli and --refs are required");
  if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be positive");
  return o;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (!o.record.empty()) return record(o.record);
    const References refs(o.refs);
    const Workload wl = make_workload(o.workload, o.seed);
    std::cout << "workload " << wl.name << ", seed " << o.seed << ", "
              << wl.programs.size() << " programs, " << wl.points.size()
              << " points per " << (wl.kind == Kind::ServeMixed ? "round" : "batch")
              << (o.trace ? ", traced" : "") << "\n";
    Report rep;
    if (wl.kind == Kind::ServeMixed)
      o.trace ? trace_serve(o, wl, refs, rep) : run_serve(o, wl, refs, rep);
    else
      o.trace ? trace_batch(o, wl, refs, rep) : run_batch(o, wl, refs, rep);
    emit(rep, o.trace ? per_layer_metrics() : end_to_end_metrics());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
