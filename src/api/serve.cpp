#include "api/serve.h"

#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "api/render.h"
#include "api/wire.h"
#include "support/table_printer.h"

namespace spmwcet::api {

namespace {

/// Renders a result for the response's "output" field exactly as the batch
/// CLI would print it.
template <typename R>
std::string render_output(const R& result, wire::Render mode) {
  std::ostringstream os;
  if constexpr (std::is_same_v<R, PointResult>) {
    (void)mode;
    render_point(result, os);
  } else if constexpr (std::is_same_v<R, SweepResult>) {
    render_sweep(result, os, mode == wire::Render::Csv);
  } else if constexpr (std::is_same_v<R, EvalResult>) {
    render_eval(result, os, mode == wire::Render::Csv);
  } else if constexpr (std::is_same_v<R, CorpusResult>) {
    render_corpus(result, os, mode == wire::Render::Csv);
  } else if constexpr (std::is_same_v<R, WcetBenchResult>) {
    (void)mode;
    render_wcetbench(result, os);
  } else {
    (void)mode;
    render_simbench(result, os);
  }
  return os.str();
}

template <typename R>
std::string respond(int64_t id, const Result<R>& result, wire::Render mode,
                    ServeCounters& counters) {
  if (!result.ok()) {
    counters.count_error(result.error().code);
    return wire::encode_error(id, result.error());
  }
  counters.count_ok();
  if (mode == wire::Render::None)
    return wire::encode_response(id, result.value());
  const std::string output = render_output(result.value(), mode);
  return wire::encode_response(id, result.value(), &output);
}

std::string handle_line(Engine& engine, const std::string& line,
                        ServeCounters& counters) {
  const Result<wire::AnyRequest> parsed = wire::parse_request(line);
  if (!parsed.ok()) {
    counters.count_error(parsed.error().code);
    return wire::encode_error(wire::probe_id(line), parsed.error());
  }
  const wire::AnyRequest& req = parsed.value();
  switch (req.op) {
    case wire::Op::Ping:
      counters.count_ok();
      return wire::encode_pong(req.id);
    case wire::Op::Health: {
      // The snapshot includes this probe's own line (count_line already
      // ran) but not its outcome — lines may exceed ok + errors by the
      // requests in flight, this one included.
      const std::string response =
          wire::encode_health(req.id, counters.snapshot(), engine.stats());
      counters.count_ok();
      return response;
    }
    case wire::Op::Point:
      return respond(req.id, engine.point(*req.point), req.render, counters);
    case wire::Op::Sweep:
      return respond(req.id, engine.sweep(*req.sweep), req.render, counters);
    case wire::Op::Eval:
      return respond(req.id, engine.eval(*req.eval), req.render, counters);
    case wire::Op::Corpus:
      return respond(req.id, engine.corpus(*req.corpus), req.render,
                     counters);
    case wire::Op::SimBench:
      return respond(req.id, engine.simbench(*req.simbench), req.render,
                     counters);
    case wire::Op::WcetBench:
      return respond(req.id, engine.wcetbench(*req.wcetbench), req.render,
                     counters);
  }
  counters.count_error();
  return wire::encode_error(
      req.id, ApiError{ErrorCode::Internal, "unhandled op", "op"});
}

} // namespace

bool is_blank_line(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

std::string handle_request_line(Engine& engine, const std::string& line,
                                ServeCounters& counters) {
  counters.count_line();
  try {
    return handle_line(engine, line, counters);
  } catch (const std::exception& e) {
    // The Engine reports its own failures as Results; anything that still
    // escapes is a bug, but the server answers and lives on regardless.
    counters.count_error();
    return wire::encode_error(wire::probe_id(line),
                              ApiError{ErrorCode::Internal, e.what(),
                                       "serve"});
  }
}

ServeStats serve_loop(Engine& engine, std::istream& in, std::ostream& out,
                      std::ostream* log) {
  ServeCounters counters;
  std::string line;
  while (std::getline(in, line)) {
    if (is_blank_line(line)) continue;
    out << handle_request_line(engine, line, counters) << "\n" << std::flush;
  }
  const ServeStats stats = counters.snapshot();
  if (log != nullptr) log_serve_summary(engine, stats, *log);
  return stats;
}

void log_serve_summary(const Engine& engine, const ServeStats& stats,
                       std::ostream& log) {
  const EngineStats es = engine.stats();
  const auto hits = [](const support::MemoStats& m) {
    return std::to_string(m.hits) + "/" + std::to_string(m.hits + m.misses);
  };
  log << "serve: " << stats.lines << " requests (" << stats.ok << " ok, "
      << stats.errors << " errors), " << es.response_hits
      << " response-cache hits, " << hits(es.profile_artifacts)
      << " profile-artifact hits, " << hits(es.placement_artifacts)
      << " placement hits, " << hits(es.reuse_artifacts)
      << " reuse-table hits\n";
}

int run_serve_bench(const EngineOptions& opts, uint32_t repeat,
                    std::ostream& os) {
  using clock = std::chrono::steady_clock;
  if (repeat < 2) throw Error("serve --bench requires --repeat >= 2");

  // The built-in script: one point request per paper workload per setup.
  std::vector<PointRequest> script;
  for (const std::string& name : workloads::paper_benchmark_names())
    for (const MemSetup setup : {MemSetup::Scratchpad, MemSetup::Cache}) {
      Result<PointRequest> req = PointRequest::make(name, setup, 1024);
      script.push_back(std::move(req).value());
    }

  struct Run {
    const char* label;
    bool cache_responses;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
  };
  std::vector<Run> runs = {{"responses+artifacts", true, 0, 0},
                           {"artifacts only", false, 0, 0}};

  for (Run& run : runs) {
    EngineOptions eopts = opts;
    eopts.cache_responses = run.cache_responses;
    Engine engine(eopts); // fresh engine: pass 1 below is genuinely cold
    const auto pass = [&] {
      const auto t0 = clock::now();
      for (const PointRequest& req : script) {
        const Result<PointResult> result = engine.point(req);
        if (!result.ok()) throw Error(result.error().render());
      }
      const std::chrono::duration<double, std::milli> dt = clock::now() - t0;
      return dt.count();
    };
    run.cold_ms = pass();
    run.warm_ms = 1e300;
    for (uint32_t i = 1; i < repeat; ++i)
      run.warm_ms = std::min(run.warm_ms, pass());
  }

  TablePrinter table({"caching", "cold [ms]", "warm [ms]", "speedup"});
  for (const Run& run : runs)
    table.add_row({run.label, TablePrinter::fmt(run.cold_ms, 2),
                   TablePrinter::fmt(run.warm_ms, 2),
                   TablePrinter::fmt(run.cold_ms / run.warm_ms, 2)});
  os << "resident-serve latency, " << script.size()
     << "-request script (paper workloads x {spm,cache} points, 1 KiB), "
     << "cold = first pass on a fresh engine, warm = best of "
     << (repeat - 1) << ":\n";
  table.render(os);
  for (const Run& run : runs)
    os << "serve-bench: caching=" << (run.cache_responses ? "full" : "artifacts")
       << " cold_ms=" << TablePrinter::fmt(run.cold_ms, 2)
       << " warm_ms=" << TablePrinter::fmt(run.warm_ms, 2)
       << " speedup=" << TablePrinter::fmt(run.cold_ms / run.warm_ms, 2)
       << "\n";
  return 0;
}

int run_corpus_bench(const EngineOptions& opts, const std::string& shape,
                     uint32_t base_seed, uint32_t count, uint32_t repeat,
                     std::ostream& os, std::ostream* json_os) {
  using clock = std::chrono::steady_clock;
  if (repeat < 2) throw Error("corpusbench requires --repeat >= 2");

  Result<CorpusRequest> req =
      CorpusRequest::make(shape, base_seed, count, MemSetup::Scratchpad);
  if (!req.ok()) throw Error(req.error().render());

  // Response caching off: a warm pass must re-execute every member against
  // the warm artifact caches, not replay the stored response.
  EngineOptions eopts = opts;
  eopts.cache_responses = false;
  Engine engine(eopts);

  CorpusResult result;
  const auto pass = [&] {
    const auto t0 = clock::now();
    Result<CorpusResult> r = engine.corpus(req.value());
    if (!r.ok()) throw Error(r.error().render());
    result = std::move(r).value();
    const std::chrono::duration<double, std::milli> dt = clock::now() - t0;
    return dt.count();
  };
  const double cold_ms = pass();
  // The cold pass is one batch on a fresh engine: its counters show how
  // far the batch shared placements and candidate tables.
  const EngineStats cold = engine.stats();
  double warm_ms = 1e300;
  for (uint32_t i = 1; i < repeat; ++i) warm_ms = std::min(warm_ms, pass());

  const uint64_t points =
      static_cast<uint64_t>(result.count) * result.sizes.size();
  TablePrinter table({"corpus", "programs", "points", "cold [ms]",
                      "warm [ms]", "points/s warm"});
  table.add_row({shape + "[" + std::to_string(base_seed) + ".." +
                     std::to_string(base_seed + count - 1) + "]",
                 TablePrinter::fmt(static_cast<uint64_t>(count)),
                 TablePrinter::fmt(points), TablePrinter::fmt(cold_ms, 2),
                 TablePrinter::fmt(warm_ms, 2),
                 TablePrinter::fmt(static_cast<double>(points) /
                                       (warm_ms / 1e3),
                                   0)});
  os << "generated-corpus pipeline, " << count << " " << shape
     << " programs x " << result.sizes.size()
     << " SPM sizes, cold = first pass on a fresh engine (generation "
     << "included), warm = best of " << (repeat - 1)
     << " (artifact caches warm, response cache off):\n";
  table.render(os);
  render_corpus(result, os);
  os << "corpus-bench: shape=" << shape << " programs=" << count
     << " points=" << points << " cold_ms=" << TablePrinter::fmt(cold_ms, 2)
     << " warm_ms=" << TablePrinter::fmt(warm_ms, 2) << " warm_points_per_s="
     << TablePrinter::fmt(static_cast<double>(points) / (warm_ms / 1e3), 0)
     << "\n";

  if (json_os != nullptr) {
    support::json::Value j = support::json::Value::object();
    j.set("schema", support::json::Value("spmwcet-corpus-bench/1"));
    j.set("programs", support::json::Value(count));
    j.set("points", support::json::Value(points));
    j.set("cold_seconds", support::json::Value(cold_ms / 1e3));
    j.set("warm_seconds", support::json::Value(warm_ms / 1e3));
    j.set("warm_points_per_second",
          support::json::Value(static_cast<uint64_t>(
              static_cast<double>(points) / (warm_ms / 1e3))));
    support::json::Value artifacts = support::json::Value::object();
    artifacts.set("placements",
                  wire::memo_stats_to_json(cold.placement_artifacts));
    artifacts.set("placement_binds",
                  wire::bind_stats_to_json(cold.placement_binds));
    artifacts.set("ipet_skeletons",
                  wire::ipet_stats_to_json(cold.ipet_skeletons));
    j.set("cold_artifacts", std::move(artifacts));
    j.set("corpus", wire::corpus_to_json(result));
    *json_os << j.dump() << "\n";
  }
  return 0;
}

} // namespace spmwcet::api
