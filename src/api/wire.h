// Engine API v1 — JSON wire codec for the resident serve mode.
//
// Requests are newline-delimited JSON objects, versioned with "v":1:
//
//   {"v":1,"id":7,"op":"point","workload":"g721","setup":"spm","size":1024}
//   {"v":1,"id":8,"op":"sweep","workloads":["g721","adpcm"],"setup":"cache",
//    "sizes":[64,128],"options":{"assoc":2}}
//   {"v":1,"id":9,"op":"eval"}            // paper set, both setups
//   {"v":1,"id":10,"op":"simbench","repeat":3}
//   {"v":1,"id":11,"op":"ping"}
//   {"v":1,"id":12,"op":"corpus","shape":"mixed","base":1,"count":100,
//    "setup":"spm"}                       // generated-workload seed range
//
// Generated workloads are first-class workload names: "gen:<shape>:<seed>"
// (e.g. "gen:loopy:42") is accepted anywhere a benchmark name is, and a
// malformed gen: name is answered with a typed error (invalid_argument /
// unknown_workload / out_of_range by failure class), never by dying.
//
// Optional fields: "id" (integer, echoed back; defaults to 0), "render"
// ("text" or "csv" — the response then carries an "output" string with the
// exact bytes the batch CLI would print for the equivalent command),
// "options" ({"assoc":N,"unified":bool,"persistence":bool,
// "wcet_alloc":bool}), and — on point/sweep/eval —
// "deadline_ms" (wall-time budget from request arrival; an expired
// request is answered with code "deadline_exceeded" instead of running to
// completion).
//
// The "health" op ({"v":1,"op":"health"}) returns the server's live
// serve/engine counters, for liveness probes and operator dashboards.
//
// Responses are one JSON object per line:
//
//   {"v":1,"id":7,"ok":true,"result":{...},"output":"..."}
//   {"v":1,"id":7,"ok":false,"error":{"code":"out_of_range",
//    "message":"...","context":"size"}}
//
// Decoding never throws: every malformed line becomes a Result error with a
// structured ApiError (parse_error, version_mismatch, invalid_argument,
// unknown_workload, out_of_range), which the serve loop answers without
// dying.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/engine.h"
#include "api/request.h"
#include "support/json.h"

namespace spmwcet::api {
struct ServeStats; // api/serve.h
} // namespace spmwcet::api

namespace spmwcet::api::wire {

inline constexpr int64_t kProtocolVersion = 1;

enum class Render : uint8_t { None, Text, Csv };

enum class Op : uint8_t { Point, Sweep, Eval, Corpus, SimBench, WcetBench,
                          Ping, Health };

/// One decoded request line: the envelope (id/render/op) plus exactly one
/// validated payload matching `op` (none for Ping).
struct AnyRequest {
  int64_t id = 0;
  Render render = Render::None;
  Op op = Op::Ping;
  std::optional<PointRequest> point;
  std::optional<SweepRequest> sweep;
  std::optional<EvalRequest> eval;
  std::optional<CorpusRequest> corpus;
  std::optional<SimBenchRequest> simbench;
  std::optional<WcetBenchRequest> wcetbench;
};

/// Decodes and validates one request line.
Result<AnyRequest> parse_request(const std::string& line);

/// Best-effort "id" extraction from a line that failed parse_request, so
/// error responses still correlate when possible. Returns 0 when the line
/// is not salvageable JSON.
int64_t probe_id(const std::string& line);

// Encoders produce one complete response line WITHOUT the trailing newline.
// `output` embeds pre-rendered CLI bytes (null = no "output" field).
std::string encode_response(int64_t id, const PointResult& result,
                            const std::string* output = nullptr);
std::string encode_response(int64_t id, const SweepResult& result,
                            const std::string* output = nullptr);
std::string encode_response(int64_t id, const EvalResult& result,
                            const std::string* output = nullptr);
std::string encode_response(int64_t id, const CorpusResult& result,
                            const std::string* output = nullptr);
std::string encode_response(int64_t id, const SimBenchResult& result,
                            const std::string* output = nullptr);
std::string encode_response(int64_t id, const WcetBenchResult& result,
                            const std::string* output = nullptr);
std::string encode_pong(int64_t id);
std::string encode_error(int64_t id, const ApiError& error);

/// The "health" op response: a point-in-time snapshot of the serve
/// counters (shared across every session of a socket server) and the
/// engine's stats — what an operator or load balancer probes for
/// liveness and overload visibility.
std::string encode_health(int64_t id, const ServeStats& serve,
                          const EngineStats& engine);

/// One artifact kind's counters as {"hits", "misses"}: the health op's
/// engine section and corpusbench's BENCH JSON.
support::json::Value memo_stats_to_json(const support::MemoStats& stats);

/// IPET skeleton counters as {"builds", "hits", "memo_hits", "fallbacks"}:
/// the health op's engine section and corpusbench's BENCH JSON.
support::json::Value ipet_stats_to_json(const wcet::IpetCacheStats& stats);

/// The SimBenchResult payload (schema spmwcet-sim-throughput/7) as a JSON
/// value — the single field-schema definition shared by the serve response
/// and the `simbench --json` BENCH_sim.json file, so the two cannot drift.
support::json::Value simbench_to_json(const SimBenchResult& result);

/// The WcetBenchResult payload (schema spmwcet-wcet-throughput/4), shared
/// by the serve response and `wcetbench --json` BENCH_wcet.json.
support::json::Value wcetbench_to_json(const WcetBenchResult& result);

/// The CorpusResult payload (schema spmwcet-corpus/1), shared by the serve
/// response and the `corpus --json` / corpusbench BENCH_corpus.json file.
support::json::Value corpus_to_json(const CorpusResult& result);

} // namespace spmwcet::api::wire
