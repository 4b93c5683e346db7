#include "api/wire.h"

#include <initializer_list>

#include "api/serve.h"
#include "support/json.h"

namespace spmwcet::api::wire {

namespace json = support::json;

namespace {

ApiError invalid(const std::string& message, const std::string& context) {
  return ApiError{ErrorCode::InvalidArgument, message, context};
}

/// Top-level fields are checked against the op's vocabulary — a typoed or
/// misplaced field (e.g. "size" on a sweep) must not silently run a
/// default configuration under ok:true, same policy as option keys.
std::optional<ApiError> check_fields(const json::Value& req,
                                     std::initializer_list<const char*> extra) {
  static const char* envelope_keys[] = {"v", "id", "op", "render"};
  for (const auto& [key, value] : req.members()) {
    bool ok = false;
    for (const char* k : envelope_keys) ok = ok || key == k;
    for (const char* k : extra) ok = ok || key == k;
    if (!ok)
      return invalid("unknown field '" + key + "' for this op", key);
  }
  return std::nullopt;
}

/// Reads an optional unsigned integer field with type/range checking.
Result<uint32_t> get_u32(const json::Value& obj, const char* name,
                         uint32_t fallback) {
  const json::Value* v = obj.find(name);
  if (v == nullptr) return fallback;
  if (!v->is_int())
    return invalid(std::string("field '") + name + "' must be an integer",
                   name);
  const int64_t raw = v->as_int();
  if (raw < 0 || raw > static_cast<int64_t>(UINT32_MAX))
    return ApiError{ErrorCode::OutOfRange,
                    std::string("field '") + name + "' value " +
                        std::to_string(raw) + " out of range",
                    name};
  return static_cast<uint32_t>(raw);
}

Result<bool> get_bool(const json::Value& obj, const char* name,
                      bool fallback) {
  const json::Value* v = obj.find(name);
  if (v == nullptr) return fallback;
  if (!v->is_bool())
    return invalid(std::string("field '") + name + "' must be a boolean",
                   name);
  return v->as_bool();
}

Result<ExperimentOptions> parse_options(const json::Value& req) {
  ExperimentOptions opts;
  const json::Value* o = req.find("options");
  if (o == nullptr) return opts;
  if (!o->is_object()) return invalid("'options' must be an object", "options");
  // Unknown keys are refused, not ignored: a typoed option ("wcet-alloc",
  // "persistance") silently running the default configuration would hand
  // the client mislabeled data with ok:true.
  static const char* known[] = {"assoc", "unified", "persistence",
                                "wcet_alloc"};
  for (const auto& [key, value] : o->members()) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok)
      return invalid("unknown option '" + key + "'", "options");
  }
  auto assoc = get_u32(*o, "assoc", opts.cache_assoc);
  if (!assoc.ok()) return assoc.error();
  opts.cache_assoc = assoc.value();
  auto unified = get_bool(*o, "unified", opts.cache_unified);
  if (!unified.ok()) return unified.error();
  opts.cache_unified = unified.value();
  auto pers = get_bool(*o, "persistence", opts.with_persistence);
  if (!pers.ok()) return pers.error();
  opts.with_persistence = pers.value();
  auto wcet = get_bool(*o, "wcet_alloc", opts.wcet_driven_alloc);
  if (!wcet.ok()) return wcet.error();
  opts.wcet_driven_alloc = wcet.value();
  return opts;
}

Result<MemSetup> parse_setup(const json::Value& req) {
  const json::Value* v = req.find("setup");
  if (v == nullptr) return invalid("missing 'setup' field", "setup");
  if (!v->is_string()) return invalid("'setup' must be a string", "setup");
  const std::string& s = v->as_string();
  if (s == "spm" || s == "scratchpad") return MemSetup::Scratchpad;
  if (s == "cache") return MemSetup::Cache;
  return invalid("unknown setup '" + s + "' (expected \"spm\" or \"cache\")",
                 "setup");
}

/// "workloads": ["g721",...] or "all"; also accepts a single "workload"
/// string. Absent → empty (request factories fill in their defaults).
Result<std::vector<std::string>> parse_workloads(const json::Value& req) {
  std::vector<std::string> names;
  if (const json::Value* one = req.find("workload")) {
    if (req.find("workloads") != nullptr)
      return invalid("'workload' and 'workloads' are mutually exclusive",
                     "workloads");
    if (!one->is_string())
      return invalid("'workload' must be a string", "workload");
    names.push_back(one->as_string());
    return names;
  }
  const json::Value* v = req.find("workloads");
  if (v == nullptr) return names;
  if (v->is_string()) {
    if (v->as_string() == "all") return workloads::paper_benchmark_names();
    return invalid("'workloads' must be an array of names or \"all\"",
                   "workloads");
  }
  if (!v->is_array())
    return invalid("'workloads' must be an array of names or \"all\"",
                   "workloads");
  // An explicit empty array is a client bug, not a request for defaults
  // (only an absent field selects the paper set).
  if (v->items().empty())
    return invalid("'workloads' is empty", "workloads");
  for (const json::Value& item : v->items()) {
    if (!item.is_string())
      return invalid("'workloads' entries must be strings", "workloads");
    names.push_back(item.as_string());
  }
  return names;
}

Result<std::vector<uint32_t>> parse_sizes(const json::Value& req) {
  std::vector<uint32_t> sizes;
  const json::Value* v = req.find("sizes");
  if (v == nullptr) return sizes;
  if (!v->is_array())
    return invalid("'sizes' must be an array of integers", "sizes");
  if (v->items().empty()) return invalid("'sizes' is empty", "sizes");
  for (const json::Value& item : v->items()) {
    if (!item.is_int())
      return invalid("'sizes' entries must be integers", "sizes");
    const int64_t raw = item.as_int();
    if (raw < 0 || raw > static_cast<int64_t>(UINT32_MAX))
      return ApiError{ErrorCode::OutOfRange,
                      "size " + std::to_string(raw) + " out of range",
                      "sizes"};
    sizes.push_back(static_cast<uint32_t>(raw));
  }
  return sizes;
}

json::Value point_to_json(const harness::SweepPoint& pt) {
  json::Value v = json::Value::object();
  v.set("size_bytes", json::Value(pt.size_bytes));
  v.set("sim_cycles", json::Value(pt.sim_cycles));
  v.set("wcet_cycles", json::Value(pt.wcet_cycles));
  v.set("ratio", json::Value(pt.ratio));
  v.set("cache_hits", json::Value(pt.cache_hits));
  v.set("cache_misses", json::Value(pt.cache_misses));
  v.set("spm_used_bytes", json::Value(pt.spm_used_bytes));
  v.set("energy_nj", json::Value(pt.energy_nj));
  return v;
}

json::Value points_to_json(const std::vector<harness::SweepPoint>& pts) {
  json::Value arr = json::Value::array();
  for (const harness::SweepPoint& pt : pts) arr.push(point_to_json(pt));
  return arr;
}

std::string envelope(int64_t id, json::Value result,
                     const std::string* output) {
  json::Value resp = json::Value::object();
  resp.set("v", json::Value(kProtocolVersion));
  resp.set("id", json::Value(id));
  resp.set("ok", json::Value(true));
  resp.set("result", std::move(result));
  if (output != nullptr) resp.set("output", json::Value(*output));
  return resp.dump();
}

} // namespace

Result<AnyRequest> parse_request(const std::string& line) {
  json::Value req;
  try {
    req = json::parse(line);
  } catch (const json::JsonError& e) {
    return ApiError{ErrorCode::ParseError, e.what(), "request"};
  }
  if (!req.is_object())
    return ApiError{ErrorCode::ParseError, "request must be a JSON object",
                    "request"};

  AnyRequest out;
  if (const json::Value* id = req.find("id")) {
    if (!id->is_int()) return invalid("'id' must be an integer", "id");
    out.id = id->as_int();
  }

  const json::Value* v = req.find("v");
  if (v == nullptr)
    return ApiError{ErrorCode::VersionMismatch,
                    "missing protocol version field \"v\" (expected " +
                        std::to_string(kProtocolVersion) + ")",
                    "v"};
  if (!v->is_int() || v->as_int() != kProtocolVersion)
    return ApiError{ErrorCode::VersionMismatch,
                    "unsupported protocol version (this server speaks v" +
                        std::to_string(kProtocolVersion) + ")",
                    "v"};

  if (const json::Value* render = req.find("render")) {
    if (!render->is_string())
      return invalid("'render' must be \"text\" or \"csv\"", "render");
    const std::string& r = render->as_string();
    if (r == "text") out.render = Render::Text;
    else if (r == "csv") out.render = Render::Csv;
    else if (r != "none")
      return invalid("unknown render mode '" + r + "'", "render");
  }

  const json::Value* op = req.find("op");
  if (op == nullptr) return invalid("missing 'op' field", "op");
  if (!op->is_string()) return invalid("'op' must be a string", "op");
  const std::string& name = op->as_string();

  if (name == "ping") {
    out.op = Op::Ping;
    if (auto err = check_fields(req, {})) return *err;
    return out;
  }

  if (name == "health") {
    out.op = Op::Health;
    if (auto err = check_fields(req, {})) return *err;
    return out;
  }

  auto options = parse_options(req);
  if (!options.ok()) return options.error();
  auto deadline = get_u32(req, "deadline_ms", 0);
  if (!deadline.ok()) return deadline.error();

  if (name == "point") {
    out.op = Op::Point;
    if (auto err = check_fields(
            req, {"workload", "setup", "size", "options", "deadline_ms"}))
      return *err;
    // Point and simbench responses have no CSV form; refusing here beats
    // handing a CSV-expecting client the human text report.
    if (out.render == Render::Csv)
      return invalid("render \"csv\" is not supported for op 'point'",
                     "render");
    const json::Value* wl = req.find("workload");
    if (wl == nullptr) return invalid("missing 'workload' field", "workload");
    if (!wl->is_string())
      return invalid("'workload' must be a string", "workload");
    auto setup = parse_setup(req);
    if (!setup.ok()) return setup.error();
    const json::Value* size = req.find("size");
    if (size == nullptr) return invalid("missing 'size' field", "size");
    if (!size->is_int()) return invalid("'size' must be an integer", "size");
    const int64_t raw = size->as_int();
    if (raw < 0 || raw > static_cast<int64_t>(UINT32_MAX))
      return ApiError{ErrorCode::OutOfRange,
                      "size " + std::to_string(raw) + " out of range", "size"};
    auto point = PointRequest::make(wl->as_string(), setup.value(),
                                    static_cast<uint32_t>(raw),
                                    options.value(), deadline.value());
    if (!point.ok()) return point.error();
    out.point = std::move(point).value();
    return out;
  }

  if (name == "sweep") {
    out.op = Op::Sweep;
    if (auto err = check_fields(req, {"workload", "workloads", "setup",
                                      "sizes", "options", "deadline_ms"}))
      return *err;
    auto names = parse_workloads(req);
    if (!names.ok()) return names.error();
    auto setup = parse_setup(req);
    if (!setup.ok()) return setup.error();
    auto sizes = parse_sizes(req);
    if (!sizes.ok()) return sizes.error();
    auto sweep = SweepRequest::make(names.value(), setup.value(),
                                    sizes.value(), options.value(),
                                    deadline.value());
    if (!sweep.ok()) return sweep.error();
    out.sweep = std::move(sweep).value();
    return out;
  }

  if (name == "eval") {
    out.op = Op::Eval;
    if (auto err = check_fields(req, {"workload", "workloads", "sizes",
                                      "options", "deadline_ms"}))
      return *err;
    auto names = parse_workloads(req);
    if (!names.ok()) return names.error();
    auto sizes = parse_sizes(req);
    if (!sizes.ok()) return sizes.error();
    auto eval = EvalRequest::make(names.value(), sizes.value(),
                                  options.value(), deadline.value());
    if (!eval.ok()) return eval.error();
    out.eval = std::move(eval).value();
    return out;
  }

  if (name == "corpus") {
    out.op = Op::Corpus;
    if (auto err = check_fields(req, {"shape", "base", "count", "setup",
                                      "sizes", "options", "deadline_ms"}))
      return *err;
    const json::Value* shape = req.find("shape");
    if (shape == nullptr) return invalid("missing 'shape' field", "shape");
    if (!shape->is_string())
      return invalid("'shape' must be a string", "shape");
    auto base = get_u32(req, "base", 1);
    if (!base.ok()) return base.error();
    auto count = get_u32(req, "count", 100);
    if (!count.ok()) return count.error();
    auto setup = parse_setup(req);
    if (!setup.ok()) return setup.error();
    auto sizes = parse_sizes(req);
    if (!sizes.ok()) return sizes.error();
    auto corpus = CorpusRequest::make(shape->as_string(), base.value(),
                                      count.value(), setup.value(),
                                      sizes.value(), options.value(),
                                      deadline.value());
    if (!corpus.ok()) return corpus.error();
    out.corpus = std::move(corpus).value();
    return out;
  }

  if (name == "wcetbench") {
    out.op = Op::WcetBench;
    if (auto err = check_fields(req, {"repeat"})) return *err;
    if (out.render == Render::Csv)
      return invalid("render \"csv\" is not supported for op 'wcetbench'",
                     "render");
    auto repeat = get_u32(req, "repeat", 5);
    if (!repeat.ok()) return repeat.error();
    auto bench = WcetBenchRequest::make(repeat.value());
    if (!bench.ok()) return bench.error();
    out.wcetbench = std::move(bench).value();
    return out;
  }

  if (name == "simbench") {
    out.op = Op::SimBench;
    if (auto err = check_fields(req, {"repeat"})) return *err;
    if (out.render == Render::Csv)
      return invalid("render \"csv\" is not supported for op 'simbench'",
                     "render");
    auto repeat = get_u32(req, "repeat", 5);
    if (!repeat.ok()) return repeat.error();
    auto bench = SimBenchRequest::make(repeat.value());
    if (!bench.ok()) return bench.error();
    out.simbench = std::move(bench).value();
    return out;
  }

  return invalid("unknown op '" + name + "'", "op");
}

int64_t probe_id(const std::string& line) {
  try {
    const json::Value req = json::parse(line);
    const json::Value* id = req.find("id");
    return (id != nullptr && id->is_int()) ? id->as_int() : 0;
  } catch (const std::exception&) {
    return 0;
  }
}

std::string encode_response(int64_t id, const PointResult& result,
                            const std::string* output) {
  json::Value r = json::Value::object();
  r.set("workload", json::Value(result.workload));
  r.set("setup", json::Value(setup_name(result.setup)));
  r.set("size", json::Value(result.size_bytes));
  r.set("point", point_to_json(result.point));
  return envelope(id, std::move(r), output);
}

std::string encode_response(int64_t id, const SweepResult& result,
                            const std::string* output) {
  json::Value r = json::Value::object();
  r.set("setup", json::Value(setup_name(result.setup)));
  json::Value series = json::Value::array();
  for (const SweepResult::Series& s : result.series) {
    json::Value entry = json::Value::object();
    entry.set("workload", json::Value(s.workload));
    entry.set("points", points_to_json(s.points));
    series.push(std::move(entry));
  }
  r.set("series", std::move(series));
  return envelope(id, std::move(r), output);
}

std::string encode_response(int64_t id, const EvalResult& result,
                            const std::string* output) {
  json::Value r = json::Value::object();
  json::Value results = json::Value::array();
  for (const harness::EvaluationResult& er : result.results) {
    json::Value entry = json::Value::object();
    entry.set("workload", json::Value(er.workload->name));
    entry.set("spm", points_to_json(er.spm));
    entry.set("cache", points_to_json(er.cache));
    results.push(std::move(entry));
  }
  r.set("results", std::move(results));
  return envelope(id, std::move(r), output);
}

std::string encode_response(int64_t id, const CorpusResult& result,
                            const std::string* output) {
  return envelope(id, corpus_to_json(result), output);
}

json::Value corpus_to_json(const CorpusResult& result) {
  json::Value r = json::Value::object();
  r.set("schema", json::Value("spmwcet-corpus/1"));
  r.set("shape", json::Value(result.shape));
  r.set("base", json::Value(result.base_seed));
  r.set("count", json::Value(result.count));
  r.set("setup", json::Value(setup_name(result.setup)));
  json::Value stats = json::Value::array();
  for (const CorpusResult::SizeStats& st : result.stats) {
    json::Value entry = json::Value::object();
    entry.set("size_bytes", json::Value(st.size_bytes));
    entry.set("wcet_min", json::Value(st.wcet_min));
    entry.set("wcet_mean", json::Value(st.wcet_mean));
    entry.set("wcet_max", json::Value(st.wcet_max));
    entry.set("ratio_min", json::Value(st.ratio_min));
    entry.set("ratio_mean", json::Value(st.ratio_mean));
    entry.set("ratio_max", json::Value(st.ratio_max));
    entry.set("energy_min_nj", json::Value(st.energy_min_nj));
    entry.set("energy_mean_nj", json::Value(st.energy_mean_nj));
    entry.set("energy_max_nj", json::Value(st.energy_max_nj));
    stats.push(std::move(entry));
  }
  r.set("sizes", std::move(stats));
  r.set("total_sim_cycles", json::Value(result.total_sim_cycles));
  r.set("total_wcet_cycles", json::Value(result.total_wcet_cycles));
  return r;
}

std::string encode_response(int64_t id, const SimBenchResult& result,
                            const std::string* output) {
  return envelope(id, simbench_to_json(result), output);
}

json::Value simbench_to_json(const SimBenchResult& result) {
  json::Value r = json::Value::object();
  r.set("schema", json::Value("spmwcet-sim-throughput/8"));
  r.set("repeat", json::Value(result.repeat));
  json::Value rows = json::Value::array();
  for (const SimBenchResult::Row& row : result.rows) {
    json::Value entry = json::Value::object();
    entry.set("name", json::Value(row.benchmark));
    entry.set("instructions", json::Value(row.instructions));
    entry.set("best_seconds", json::Value(row.best_seconds));
    entry.set("instructions_per_second",
              json::Value(static_cast<uint64_t>(row.instr_per_second)));
    entry.set("stack_window", json::Value(row.stack_window));
    entry.set("fallback_instructions", json::Value(row.fallback_instructions));
    entry.set("observed_best_seconds", json::Value(row.observed_best_seconds));
    rows.push(std::move(entry));
  }
  r.set("benchmarks", std::move(rows));
  r.set("aggregate_instructions_per_second",
        json::Value(static_cast<uint64_t>(result.aggregate_ips)));
  return r;
}

std::string encode_response(int64_t id, const WcetBenchResult& result,
                            const std::string* output) {
  return envelope(id, wcetbench_to_json(result), output);
}

json::Value wcetbench_to_json(const WcetBenchResult& result) {
  json::Value r = json::Value::object();
  r.set("schema", json::Value("spmwcet-wcet-throughput/4"));
  r.set("repeat", json::Value(result.repeat));
  json::Value rows = json::Value::array();
  for (const WcetBenchResult::Row& row : result.rows) {
    json::Value entry = json::Value::object();
    entry.set("name", json::Value(row.benchmark));
    entry.set("setup", json::Value(row.setup));
    entry.set("analyses", json::Value(row.analyses));
    entry.set("best_seconds", json::Value(row.best_seconds));
    entry.set("analyses_per_second", json::Value(row.analyses_per_second));
    rows.push(std::move(entry));
  }
  r.set("benchmarks", std::move(rows));
  r.set("aggregate_analyses_per_second",
        json::Value(static_cast<uint64_t>(result.aggregate_aps)));
  return r;
}

std::string encode_pong(int64_t id) {
  json::Value r = json::Value::object();
  r.set("pong", json::Value(true));
  return envelope(id, std::move(r), nullptr);
}

json::Value memo_stats_to_json(const support::MemoStats& stats) {
  json::Value v = json::Value::object();
  v.set("hits", json::Value(stats.hits));
  v.set("misses", json::Value(stats.misses));
  return v;
}

json::Value bind_stats_to_json(const harness::BindStats& stats) {
  json::Value v = json::Value::object();
  v.set("reanalyzed", json::Value(stats.reanalyzed));
  return v;
}

json::Value ipet_stats_to_json(const wcet::IpetCacheStats& stats) {
  json::Value v = json::Value::object();
  v.set("builds", json::Value(stats.builds));
  v.set("hits", json::Value(stats.hits));
  v.set("memo_hits", json::Value(stats.memo_hits));
  v.set("fallbacks", json::Value(stats.fallbacks));
  return v;
}

std::string encode_health(int64_t id, const ServeStats& serve,
                          const EngineStats& engine) {
  json::Value s = json::Value::object();
  s.set("lines", json::Value(serve.lines));
  s.set("ok", json::Value(serve.ok));
  s.set("errors", json::Value(serve.errors));
  s.set("deadline_exceeded", json::Value(serve.deadline_exceeded));
  s.set("shed", json::Value(serve.shed));
  s.set("timed_out_sessions", json::Value(serve.timed_out_sessions));
  s.set("refused_connections", json::Value(serve.refused_connections));

  json::Value e = json::Value::object();
  e.set("requests", json::Value(engine.requests));
  e.set("response_hits", json::Value(engine.response_hits));
  e.set("response_evictions", json::Value(engine.response_evictions));
  e.set("admission_waits", json::Value(engine.admission_waits));
  e.set("shed", json::Value(engine.shed));
  json::Value profiles = memo_stats_to_json(engine.profile_artifacts);
  profiles.set("observed", json::Value(engine.profile_artifacts.inserted));
  e.set("profiles", std::move(profiles));
  e.set("reuse_tables", memo_stats_to_json(engine.reuse_artifacts));
  e.set("placements", memo_stats_to_json(engine.placement_artifacts));
  e.set("placement_binds", bind_stats_to_json(engine.placement_binds));
  e.set("ipet_skeletons", ipet_stats_to_json(engine.ipet_skeletons));

  json::Value r = json::Value::object();
  r.set("healthy", json::Value(true)); // answering at all is the liveness bit
  r.set("serve", std::move(s));
  r.set("engine", std::move(e));
  return envelope(id, std::move(r), nullptr);
}

std::string encode_error(int64_t id, const ApiError& error) {
  json::Value resp = json::Value::object();
  resp.set("v", json::Value(kProtocolVersion));
  resp.set("id", json::Value(id));
  resp.set("ok", json::Value(false));
  json::Value e = json::Value::object();
  e.set("code", json::Value(to_string(error.code)));
  e.set("message", json::Value(error.message));
  e.set("context", json::Value(error.context));
  resp.set("error", std::move(e));
  return resp.dump();
}

} // namespace spmwcet::api::wire
