// Wire protocol + resident serve loop: the JSON value layer round-trips,
// every malformed-request class (bad JSON, version mismatch, unknown
// op/workload/setup, out-of-range sizes) comes back as a structured
// ApiError response without killing the server, and a multi-request serve
// session produces output byte-identical to the batch CLI's rendering.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "api/serve.h"
#include "api/wire.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "support/fault.h"
#include "support/json.h"
#include "workloads/workload.h"

#include "fuzz_mutate.h"

namespace spmwcet {
namespace {

namespace json = support::json;
using api::ErrorCode;
using fuzz::mutate;

// ---- JSON layer -----------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  const json::Value v = json::parse(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"f":18446744073709551615}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_double(), -2.5);
  EXPECT_EQ(v.find("c")->as_string(), "x\ny");
  ASSERT_EQ(v.find("d")->items().size(), 3u);
  EXPECT_TRUE(v.find("d")->items()[2].is_null());
  // Beyond int64: falls back to double rather than failing.
  EXPECT_TRUE(v.find("e")->find("f")->is_number());
}

TEST(Json, Int64RoundTripsExactly) {
  const int64_t big = 9007199254740993; // 2^53 + 1: not double-representable
  const json::Value v = json::parse(std::to_string(big));
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), big);
  EXPECT_EQ(v.dump(), std::to_string(big));
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string original = "tab\t quote\" back\\ nl\n \x01 unicode \xc3\xa9";
  const json::Value reparsed = json::parse(json::Value(original).dump());
  EXPECT_EQ(reparsed.as_string(), original);
  // \uXXXX escapes, including a surrogate pair.
  EXPECT_EQ(json::parse(R"("é 😀")").as_string(),
            "\xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":}"), json::JsonError);
  EXPECT_THROW(json::parse("[1,]"), json::JsonError);
  EXPECT_THROW(json::parse("tru"), json::JsonError);
  EXPECT_THROW(json::parse("1 2"), json::JsonError);
  EXPECT_THROW(json::parse("\"\\ud800 lone\""), json::JsonError);
}

TEST(Json, DeepNestingIsAnErrorNotAStackOverflow) {
  // The resident server parses untrusted stdin; pathological nesting must
  // come back as JsonError (depth cap), never as unbounded recursion.
  const std::string bomb(200'000, '[');
  EXPECT_THROW(json::parse(bomb), json::JsonError);
  EXPECT_THROW(json::parse(std::string(200'000, '{')), json::JsonError);
  // Reasonable nesting still parses.
  EXPECT_NO_THROW(json::parse("[[[[[[[[[[{\"a\":[1]}]]]]]]]]]]"));
}

// ---- request decoding -----------------------------------------------------

ErrorCode code_of(const std::string& line) {
  const auto parsed = api::wire::parse_request(line);
  EXPECT_FALSE(parsed.ok()) << line;
  return parsed.ok() ? ErrorCode::Internal : parsed.error().code;
}

TEST(Wire, DecodesPointRequest) {
  const auto parsed = api::wire::parse_request(
      R"({"v":1,"id":42,"op":"point","workload":"g721","setup":"spm",)"
      R"("size":1024,"render":"text","options":{"wcet_alloc":true}})");
  ASSERT_TRUE(parsed.ok());
  const api::wire::AnyRequest& req = parsed.value();
  EXPECT_EQ(req.id, 42);
  EXPECT_EQ(req.op, api::wire::Op::Point);
  EXPECT_EQ(req.render, api::wire::Render::Text);
  ASSERT_TRUE(req.point.has_value());
  EXPECT_EQ(req.point->workload(), "g721");
  EXPECT_EQ(req.point->setup(), harness::MemSetup::Scratchpad);
  EXPECT_EQ(req.point->size_bytes(), 1024u);
  EXPECT_TRUE(req.point->options().wcet_driven_alloc);
}

TEST(Wire, DecodesSweepAndEvalDefaults) {
  const auto sweep = api::wire::parse_request(
      R"({"v":1,"op":"sweep","workloads":"all","setup":"cache"})");
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().sweep->workloads(),
            workloads::paper_benchmark_names());
  EXPECT_EQ(sweep.value().sweep->sizes(), harness::SweepConfig{}.sizes);

  const auto eval = api::wire::parse_request(R"({"v":1,"op":"eval"})");
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval.value().eval->workloads(),
            workloads::paper_benchmark_names());
}

TEST(Wire, DecodesWcetBenchRequest) {
  const auto parsed = api::wire::parse_request(
      R"({"v":1,"id":5,"op":"wcetbench","repeat":3})");
  ASSERT_TRUE(parsed.ok());
  const api::wire::AnyRequest& req = parsed.value();
  EXPECT_EQ(req.op, api::wire::Op::WcetBench);
  ASSERT_TRUE(req.wcetbench.has_value());
  EXPECT_EQ(req.wcetbench->repeat(), 3u);
}

TEST(Wire, SimBenchRowsCarryStackWindowEngagement) {
  api::SimBenchResult result;
  result.repeat = 1;
  result.rows.push_back({"g721", 10, 0.5, 20.0, true, 0, 1.5});
  result.rows.push_back({"adpcm", 10, 0.5, 20.0, false, 3, 0.75});
  const json::Value v = api::wire::simbench_to_json(result);
  EXPECT_EQ(v.find("schema")->as_string(), "spmwcet-sim-throughput/8");
  EXPECT_EQ(v.find("spm_bytes"), nullptr);
  const json::Value* rows = v.find("benchmarks");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 2u);
  EXPECT_TRUE(rows->items()[0].find("stack_window")->as_bool());
  EXPECT_FALSE(rows->items()[1].find("stack_window")->as_bool());
  EXPECT_EQ(rows->items()[0].find("fallback_instructions")->as_int(), 0);
  EXPECT_EQ(rows->items()[1].find("fallback_instructions")->as_int(), 3);
  EXPECT_EQ(rows->items()[0].find("observed_best_seconds")->as_double(), 1.5);
  EXPECT_EQ(rows->items()[1].find("observed_best_seconds")->as_double(), 0.75);
}

TEST(Wire, RetiredModeFieldsAreRefused) {
  // The implementation switches are gone: each former option key and
  // bench field is an unknown name now, refused with a typed error
  // instead of being ignored.
  struct Row {
    const char* line;
    const char* context;
    const char* message;
  };
  const Row rows[] = {
      {R"({"v":1,"op":"point","workload":"g721","setup":"spm","size":64,)"
       R"("options":{"artifact_cache":false}})",
       "options", "unknown option 'artifact_cache'"},
      {R"({"v":1,"op":"point","workload":"g721","setup":"cache","size":512,)"
       R"("options":{"legacy_wcet":true}})",
       "options", "unknown option 'legacy_wcet'"},
      {R"({"v":1,"op":"sweep","workloads":["g721"],"setup":"cache",)"
       R"("options":{"incremental":false}})",
       "options", "unknown option 'incremental'"},
      {R"({"v":1,"op":"eval","options":{"block_tier":false}})", "options",
       "unknown option 'block_tier'"},
      {R"({"v":1,"op":"corpus","shape":"mixed","setup":"spm",)"
       R"("options":{"legacy_wcet":false}})",
       "options", "unknown option 'legacy_wcet'"},
      {R"({"v":1,"op":"simbench","repeat":1,"legacy":true})", "legacy",
       "unknown field 'legacy' for this op"},
      {R"({"v":1,"op":"simbench","repeat":1,"block_tier":false})",
       "block_tier", "unknown field 'block_tier' for this op"},
      {R"({"v":1,"op":"simbench","repeat":1,"spm_bytes":4096})",
       "spm_bytes", "unknown field 'spm_bytes' for this op"},
      {R"({"v":1,"op":"wcetbench","repeat":1,"legacy":true})", "legacy",
       "unknown field 'legacy' for this op"},
      {R"({"v":1,"op":"wcetbench","repeat":1,"incremental":false})",
       "incremental", "unknown field 'incremental' for this op"},
  };
  for (const Row& row : rows) {
    const auto parsed = api::wire::parse_request(row.line);
    ASSERT_FALSE(parsed.ok()) << row.line;
    EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument) << row.line;
    EXPECT_EQ(parsed.error().context, row.context) << row.line;
    EXPECT_EQ(parsed.error().message, row.message) << row.line;
  }
}

TEST(Wire, MalformedRequestsGetTypedErrors) {
  EXPECT_EQ(code_of("this is not json"), ErrorCode::ParseError);
  EXPECT_EQ(code_of("[1,2,3]"), ErrorCode::ParseError);
  EXPECT_EQ(code_of(R"({"op":"ping"})"), ErrorCode::VersionMismatch);
  EXPECT_EQ(code_of(R"({"v":2,"op":"ping"})"), ErrorCode::VersionMismatch);
  EXPECT_EQ(code_of(R"({"v":1})"), ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"frobnicate"})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(
      code_of(
          R"({"v":1,"op":"point","workload":"g721","setup":"tape","size":64})"),
      ErrorCode::InvalidArgument);
  EXPECT_EQ(
      code_of(
          R"({"v":1,"op":"point","workload":"wat","setup":"spm","size":64})"),
      ErrorCode::UnknownWorkload);
  EXPECT_EQ(
      code_of(
          R"({"v":1,"op":"point","workload":"g721","setup":"spm","size":0})"),
      ErrorCode::OutOfRange);
  EXPECT_EQ(code_of(R"({"v":1,"op":"sweep","workloads":["g721"],)"
                    R"("setup":"cache","sizes":[64,100]})"),
            ErrorCode::OutOfRange);
  // Ambiguous workload selection and unsupported render modes are refused
  // rather than silently half-honored.
  EXPECT_EQ(code_of(R"({"v":1,"op":"sweep","workload":"g721",)"
                    R"("workloads":["adpcm"],"setup":"spm"})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(
      code_of(R"({"v":1,"op":"point","workload":"g721","setup":"spm",)"
              R"("size":64,"render":"csv"})"),
      ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"simbench","render":"csv"})"),
            ErrorCode::InvalidArgument);
  // Typoed option keys and explicit empty selection arrays are refused,
  // never silently run with defaults.
  EXPECT_EQ(code_of(R"({"v":1,"op":"sweep","workload":"g721","setup":"spm",)"
                    R"("options":{"wcet-alloc":true}})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"eval","workloads":[]})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"eval","sizes":[]})"),
            ErrorCode::InvalidArgument);
  // Typoed or misplaced top-level fields are refused per op, same policy
  // as option keys.
  EXPECT_EQ(code_of(R"({"v":1,"op":"sweep","workloads":["g721"],)"
                    R"("setup":"spm","size":64})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(
      code_of(
          R"({"v":1,"op":"point","workload":"g721","setup":"spm","size":64,)"
          R"("workloads":["adpcm"]})"),
      ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"simbench","options":{"assoc":2}})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"ping","extra":1})"),
            ErrorCode::InvalidArgument);
}

TEST(Wire, AssociativityBeyondTheAgeDomainIsOutOfRange) {
  // Past 128 ways the cache analysis' byte-wide ages cannot represent an
  // eviction; the request layer refuses the geometry on every path.
  const auto error_of = [](const std::string& line) {
    const auto parsed = api::wire::parse_request(line);
    EXPECT_FALSE(parsed.ok()) << line;
    return parsed.ok() ? api::ApiError{} : parsed.error();
  };
  for (const char* options :
       {R"({"assoc":256,"persistence":true})",
        R"({"assoc":256,"unified":false})", R"({"assoc":512})"}) {
    const api::ApiError e = error_of(
        std::string(R"({"v":1,"op":"point","workload":"adpcm",)"
                    R"("setup":"cache","size":8192,"options":)") +
        options + "}");
    EXPECT_EQ(e.code, ErrorCode::OutOfRange) << options;
    EXPECT_EQ(e.context, "assoc") << options;
  }
  EXPECT_EQ(code_of(R"({"v":1,"op":"corpus","shape":"mixed","setup":"cache",)"
                    R"("sizes":[8192],"options":{"assoc":256}})"),
            ErrorCode::OutOfRange);
  EXPECT_TRUE(api::wire::parse_request(
                  R"({"v":1,"op":"point","workload":"adpcm","setup":"cache",)"
                  R"("size":8192,"options":{"assoc":128,"persistence":true}})")
                  .ok());
}

TEST(Wire, DecodesCorpusRequestWithDefaults) {
  const auto parsed = api::wire::parse_request(
      R"({"v":1,"id":6,"op":"corpus","shape":"loopy","setup":"spm"})");
  ASSERT_TRUE(parsed.ok());
  const api::wire::AnyRequest& req = parsed.value();
  EXPECT_EQ(req.op, api::wire::Op::Corpus);
  ASSERT_TRUE(req.corpus.has_value());
  EXPECT_EQ(req.corpus->shape(), "loopy");
  EXPECT_EQ(req.corpus->base_seed(), 1u);   // default: seeds from 1
  EXPECT_EQ(req.corpus->count(), 100u);     // default: the CI corpus size
  EXPECT_EQ(req.corpus->sizes(), harness::SweepConfig{}.sizes);
  ASSERT_EQ(req.corpus->workload_names().size(), 100u);
  EXPECT_EQ(req.corpus->workload_names().front(), "gen:loopy:1");

  const auto explicit_req = api::wire::parse_request(
      R"({"v":1,"op":"corpus","shape":"tiny","base":7,"count":3,)"
      R"("setup":"cache","sizes":[256,512],"options":{"assoc":2},)"
      R"("deadline_ms":5000})");
  ASSERT_TRUE(explicit_req.ok());
  const api::CorpusRequest& c = *explicit_req.value().corpus;
  EXPECT_EQ(c.base_seed(), 7u);
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.setup(), harness::MemSetup::Cache);
  EXPECT_EQ(c.sizes(), (std::vector<uint32_t>{256, 512}));
  EXPECT_EQ(c.options().cache_assoc, 2u);
  EXPECT_EQ(c.deadline_ms(), 5000u);
  EXPECT_EQ(c.workload_names().back(), "gen:tiny:9");
}

TEST(Wire, CorpusAndGenNameFailuresGetTypedErrors) {
  // Corpus op: every validation failure is a typed refusal.
  EXPECT_EQ(code_of(R"({"v":1,"op":"corpus","setup":"spm"})"),
            ErrorCode::InvalidArgument); // missing shape
  EXPECT_EQ(code_of(R"({"v":1,"op":"corpus","shape":"huge","setup":"spm"})"),
            ErrorCode::UnknownWorkload);
  EXPECT_EQ(code_of(R"({"v":1,"op":"corpus","shape":"mixed","setup":"spm",)"
                    R"("count":0})"),
            ErrorCode::OutOfRange);
  EXPECT_EQ(code_of(R"({"v":1,"op":"corpus","shape":"mixed","setup":"spm",)"
                    R"("count":4097})"),
            ErrorCode::OutOfRange); // beyond kMaxCorpusCount
  EXPECT_EQ(code_of(R"({"v":1,"op":"corpus","shape":"mixed","setup":"spm",)"
                    R"("base":4294967295,"count":2})"),
            ErrorCode::OutOfRange); // seed range leaves uint32
  EXPECT_EQ(code_of(R"({"v":1,"op":"corpus","shape":"mixed","setup":"spm",)"
                    R"("workload":"g721"})"),
            ErrorCode::InvalidArgument); // misplaced field

  // gen: workload names on point/sweep: one typed error per failure class
  // (malformed syntax / unknown shape / seed out of range), and the
  // well-formed name is accepted like any benchmark.
  EXPECT_EQ(code_of(R"({"v":1,"op":"point","workload":"gen:tiny:",)"
                    R"("setup":"spm","size":64})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"point","workload":"gen:tiny:01",)"
                    R"("setup":"spm","size":64})"),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(R"({"v":1,"op":"sweep","workload":"gen:huge:1",)"
                    R"("setup":"spm"})"),
            ErrorCode::UnknownWorkload);
  EXPECT_EQ(code_of(R"({"v":1,"op":"point","workload":"gen:tiny:4294967296",)"
                    R"("setup":"spm","size":64})"),
            ErrorCode::OutOfRange);
  const auto ok = api::wire::parse_request(
      R"({"v":1,"op":"point","workload":"gen:branchy:42","setup":"spm",)"
      R"("size":1024})");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().point->workload(), "gen:branchy:42");
}

TEST(Wire, DecodesDeadlineAndRefusesAbsurdOnes) {
  const auto point = api::wire::parse_request(
      R"({"v":1,"op":"point","workload":"g721","setup":"spm","size":64,)"
      R"("deadline_ms":2500})");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point.value().point->deadline_ms(), 2500u);

  const auto sweep = api::wire::parse_request(
      R"({"v":1,"op":"sweep","workloads":["g721"],"setup":"cache",)"
      R"("deadline_ms":100})");
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().sweep->deadline_ms(), 100u);

  // Default: unbounded, and the request key ignores the deadline (the
  // response cache may serve a deadline-tagged request's result to an
  // identical request without one — results are deadline-independent).
  const auto plain = api::wire::parse_request(
      R"({"v":1,"op":"point","workload":"g721","setup":"spm","size":64})");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().point->deadline_ms(), 0u);
  const auto tagged = api::wire::parse_request(
      R"({"v":1,"op":"point","workload":"g721","setup":"spm","size":64,)"
      R"("deadline_ms":2500})");
  EXPECT_EQ(plain.value().point->key(), tagged.value().point->key());

  // Beyond the 1-hour cap is a client bug, refused up front.
  EXPECT_EQ(code_of(R"({"v":1,"op":"point","workload":"g721","setup":"spm",)"
                    R"("size":64,"deadline_ms":3600001})"),
            ErrorCode::OutOfRange);
  // A deadline on an op that never computes is a typoed field.
  EXPECT_EQ(code_of(R"({"v":1,"op":"ping","deadline_ms":100})"),
            ErrorCode::InvalidArgument);
}

// ---- serve loop -----------------------------------------------------------

/// Runs a serve session over string streams and returns one parsed JSON
/// response per request line.
std::vector<json::Value> serve(const std::string& script,
                               api::Engine& engine) {
  std::istringstream in(script);
  std::ostringstream out;
  api::serve_loop(engine, in, out);
  std::vector<json::Value> responses;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line))
    responses.push_back(json::parse(line));
  return responses;
}

TEST(Serve, BadRequestsDoNotKillTheServer) {
  api::Engine engine;
  const std::string script =
      std::string(100'000, '[') + "\n" // nesting bomb -> error, not SIGSEGV
      "not json at all\n"
      "{\"v\":9,\"id\":1,\"op\":\"ping\"}\n"
      "\n" // blank lines are skipped, not answered
      "{\"v\":1,\"id\":2,\"op\":\"point\",\"workload\":\"wat\","
      "\"setup\":\"spm\",\"size\":64}\n"
      "{\"v\":1,\"id\":3,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"cache\",\"size\":4096}\n"
      "{\"v\":1,\"id\":4,\"op\":\"ping\"}\n";
  const auto responses = serve(script, engine);
  ASSERT_EQ(responses.size(), 6u);

  EXPECT_FALSE(responses[0].find("ok")->as_bool());
  EXPECT_EQ(responses[0].find("error")->find("code")->as_string(),
            "parse_error");
  EXPECT_FALSE(responses[1].find("ok")->as_bool());
  EXPECT_EQ(responses[1].find("error")->find("code")->as_string(),
            "parse_error");
  EXPECT_FALSE(responses[2].find("ok")->as_bool());
  EXPECT_EQ(responses[2].find("error")->find("code")->as_string(),
            "version_mismatch");
  EXPECT_EQ(responses[2].find("id")->as_int(), 1); // id echoed even on error
  EXPECT_FALSE(responses[3].find("ok")->as_bool());
  EXPECT_EQ(responses[3].find("error")->find("code")->as_string(),
            "unknown_workload");
  EXPECT_TRUE(responses[4].find("ok")->as_bool());
  // The server is still alive and answering after every error.
  EXPECT_TRUE(responses[5].find("ok")->as_bool());
  EXPECT_TRUE(responses[5].find("result")->find("pong")->as_bool());
  EXPECT_EQ(responses[5].find("id")->as_int(), 4);
}

TEST(Serve, GeneratedNamesAreValidatedAndServed) {
  // Every malformed gen: class gets its typed refusal on the wire, and the
  // same session then serves a generated point and a corpus batch — no
  // exception ever escapes the loop.
  api::Engine engine;
  const std::string script =
      "{\"v\":1,\"id\":1,\"op\":\"point\",\"workload\":\"gen:tiny:01\","
      "\"setup\":\"spm\",\"size\":64}\n"
      "{\"v\":1,\"id\":2,\"op\":\"point\",\"workload\":\"gen:huge:1\","
      "\"setup\":\"spm\",\"size\":64}\n"
      "{\"v\":1,\"id\":3,\"op\":\"sweep\",\"workloads\":"
      "[\"gen:tiny:4294967296\"],\"setup\":\"spm\",\"sizes\":[64]}\n"
      "{\"v\":1,\"id\":4,\"op\":\"point\",\"workload\":\"gen:tiny:7\","
      "\"setup\":\"spm\",\"size\":256}\n"
      "{\"v\":1,\"id\":5,\"op\":\"corpus\",\"shape\":\"tiny\",\"base\":3,"
      "\"count\":2,\"setup\":\"spm\",\"sizes\":[256]}\n";
  const auto responses = serve(script, engine);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_FALSE(responses[0].find("ok")->as_bool());
  EXPECT_EQ(responses[0].find("error")->find("code")->as_string(),
            "invalid_argument"); // leading zero -> malformed syntax
  EXPECT_FALSE(responses[1].find("ok")->as_bool());
  EXPECT_EQ(responses[1].find("error")->find("code")->as_string(),
            "unknown_workload"); // unknown shape
  EXPECT_FALSE(responses[2].find("ok")->as_bool());
  EXPECT_EQ(responses[2].find("error")->find("code")->as_string(),
            "out_of_range"); // seed beyond uint32
  EXPECT_TRUE(responses[3].find("ok")->as_bool());
  const json::Value* result = responses[3].find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("workload")->as_string(), "gen:tiny:7");
  const json::Value* pt = result->find("point");
  ASSERT_NE(pt, nullptr);
  EXPECT_GE(pt->find("wcet_cycles")->as_int(), pt->find("sim_cycles")->as_int());
  EXPECT_TRUE(responses[4].find("ok")->as_bool());
  const json::Value* corpus = responses[4].find("result");
  ASSERT_NE(corpus, nullptr);
  EXPECT_EQ(corpus->find("schema")->as_string(), "spmwcet-corpus/1");
  EXPECT_EQ(corpus->find("shape")->as_string(), "tiny");
  EXPECT_EQ(corpus->find("base")->as_int(), 3);
  EXPECT_EQ(corpus->find("count")->as_int(), 2);
  EXPECT_GT(corpus->find("total_wcet_cycles")->as_int(), 0);
}

TEST(Serve, HealthReportsReuseTableEngagement) {
  // Two cache sizes of one workload: one observed run, one table hit.
  api::Engine engine;
  const auto responses = serve(
      "{\"v\":1,\"id\":1,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"cache\",\"size\":64}\n"
      "{\"v\":1,\"id\":2,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"cache\",\"size\":128}\n"
      "{\"v\":1,\"id\":3,\"op\":\"health\"}\n",
      engine);
  ASSERT_EQ(responses.size(), 3u);
  const json::Value* eng =
      responses[2].find("result")->find("engine")->find("reuse_tables");
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->find("misses")->as_int(), 1);
  EXPECT_EQ(eng->find("hits")->as_int(), 1);
}

TEST(Serve, HealthReportsPlacementAndCandidateEngagement) {
  // With the response cache off, a repeated SPM point reaches the pipeline:
  // its candidate table and its placed run are both served the second
  // time.
  api::EngineOptions eopts;
  eopts.cache_responses = false;
  api::Engine engine(eopts);
  const std::string point =
      "{\"v\":1,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"spm\",\"size\":256}\n";
  const auto responses =
      serve(point + point + "{\"v\":1,\"id\":3,\"op\":\"health\"}\n", engine);
  ASSERT_EQ(responses.size(), 3u);
  const json::Value* eng = responses[2].find("result")->find("engine");
  ASSERT_NE(eng, nullptr);
  const json::Value* counters = eng->find("placements");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("misses")->as_int(), 1);
  EXPECT_EQ(counters->find("hits")->as_int(), 1);
  // The one placement's facts held at its addresses: no function of it was
  // analyzed again.
  const json::Value* binds = eng->find("placement_binds");
  ASSERT_NE(binds, nullptr);
  EXPECT_EQ(binds->find("reanalyzed")->as_int(), 0);
  EXPECT_EQ(binds->find("class_table"), nullptr);
  // The candidate table rides on the canonical run; it has no counters.
  EXPECT_EQ(eng->find("candidates"), nullptr);
}

TEST(Serve, HealthReportsIpetSkeletonEngagement) {
  // Two SPM sizes of one workload with different placements: the second
  // placed run solves every function through the skeletons the first
  // built, and no skeleton declines.
  api::Engine engine;
  const auto responses = serve(
      "{\"v\":1,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"spm\",\"size\":64}\n"
      "{\"v\":1,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"spm\",\"size\":4096}\n"
      "{\"v\":1,\"id\":3,\"op\":\"health\"}\n",
      engine);
  ASSERT_EQ(responses.size(), 3u);
  const json::Value* ipet =
      responses[2].find("result")->find("engine")->find("ipet_skeletons");
  ASSERT_NE(ipet, nullptr);
  EXPECT_GT(ipet->find("builds")->as_int(), 0);
  EXPECT_EQ(ipet->find("hits")->as_int(), ipet->find("builds")->as_int());
  // A memo hit is a skeleton hit answered without a re-solve.
  ASSERT_NE(ipet->find("memo_hits"), nullptr);
  EXPECT_LE(ipet->find("memo_hits")->as_int(), ipet->find("hits")->as_int());
  EXPECT_EQ(ipet->find("fallbacks")->as_int(), 0);
}

TEST(Serve, HealthReportsServeAndEngineCounters) {
  api::Engine engine;
  const auto responses = serve(
      "{\"v\":1,\"id\":1,\"op\":\"ping\"}\n"
      "{\"v\":1,\"id\":7,\"op\":\"health\"}\n",
      engine);
  ASSERT_EQ(responses.size(), 2u);
  const json::Value& health = responses[1];
  EXPECT_TRUE(health.find("ok")->as_bool());
  EXPECT_EQ(health.find("id")->as_int(), 7);
  const json::Value* result = health.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("healthy")->as_bool());
  const json::Value* srv = result->find("serve");
  ASSERT_NE(srv, nullptr);
  // The snapshot includes the health line itself (already counted when
  // read) but not its outcome (counted after the snapshot).
  EXPECT_EQ(srv->find("lines")->as_int(), 2);
  EXPECT_EQ(srv->find("ok")->as_int(), 1);
  EXPECT_EQ(srv->find("errors")->as_int(), 0);
  EXPECT_EQ(srv->find("deadline_exceeded")->as_int(), 0);
  EXPECT_EQ(srv->find("shed")->as_int(), 0);
  const json::Value* eng = result->find("engine");
  ASSERT_NE(eng, nullptr);
  // Ping is answered at the wire layer and never reaches the Engine.
  EXPECT_EQ(eng->find("requests")->as_int(), 0);
  EXPECT_EQ(eng->find("shed")->as_int(), 0);
  // A health probe takes no payload fields.
  EXPECT_EQ(code_of(R"({"v":1,"op":"health","workload":"g721"})"),
            ErrorCode::InvalidArgument);
}

TEST(Serve, DeadlineExceededIsTypedOnTheWire) {
  // An injected compute delay pushes a tightly-bounded request past its
  // budget deterministically; the response must carry the typed code and
  // the serve counters must attribute it.
  support::fault::arm("engine.compute.delay", 1.0, /*times=*/0, /*skip=*/0,
                      /*param=*/60);
  api::EngineOptions opts;
  opts.cache_responses = false;
  api::Engine engine(opts);
  const auto responses = serve(
      "{\"v\":1,\"id\":1,\"op\":\"point\",\"workload\":\"bubble\","
      "\"setup\":\"spm\",\"size\":64,\"deadline_ms\":10}\n"
      "{\"v\":1,\"id\":2,\"op\":\"health\"}\n",
      engine);
  support::fault::disarm_all();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].find("ok")->as_bool());
  EXPECT_EQ(responses[0].find("error")->find("code")->as_string(),
            "deadline_exceeded");
  const json::Value* srv = responses[1].find("result")->find("serve");
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->find("errors")->as_int(), 1);
  EXPECT_EQ(srv->find("deadline_exceeded")->as_int(), 1);
}

TEST(Serve, SessionOutputMatchesBatchCli) {
  // A multi-request session with render:"text" must embed byte-identical
  // output to what the batch CLI commands print. Expectations are built
  // from the harness free functions and the CLI's historical formatting,
  // NOT from api/render.h, so this breaks if serve and CLI ever diverge.
  api::Engine engine;
  const std::string script =
      "{\"v\":1,\"id\":1,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"spm\",\"size\":1024,\"render\":\"text\"}\n"
      "{\"v\":1,\"id\":2,\"op\":\"point\",\"workload\":\"adpcm\","
      "\"setup\":\"cache\",\"size\":512,\"render\":\"text\"}\n"
      "{\"v\":1,\"id\":3,\"op\":\"sweep\",\"workload\":\"adpcm\","
      "\"setup\":\"cache\",\"sizes\":[64,128],\"render\":\"text\"}\n";
  const auto responses = serve(script, engine);
  ASSERT_EQ(responses.size(), 3u);
  for (const auto& r : responses) ASSERT_TRUE(r.find("ok")->as_bool());

  const auto wl = workloads::WorkloadRegistry::instance().benchmark("adpcm");

  { // spmwcet run adpcm --spm 1024
    harness::SweepConfig cfg;
    const auto pt = harness::detail::execute_point(
        *wl, harness::MemSetup::Scratchpad, 1024, cfg);
    std::ostringstream want;
    want << wl->name << " with 1024-byte scratchpad (" << pt.spm_used_bytes
         << " bytes allocated):\n"
         << "  ACET " << pt.sim_cycles << " cycles, WCET " << pt.wcet_cycles
         << " cycles, ratio " << pt.ratio << "\n";
    EXPECT_EQ(responses[0].find("output")->as_string(), want.str());
  }
  { // spmwcet run adpcm --cache 512
    harness::SweepConfig cfg;
    cfg.setup = harness::MemSetup::Cache;
    const auto pt = harness::detail::execute_point(
        *wl, harness::MemSetup::Cache, 512, cfg);
    std::ostringstream want;
    want << wl->name << " with 512-byte unified cache (assoc 1, MUST-only):\n"
         << "  ACET " << pt.sim_cycles << " cycles (" << pt.cache_hits
         << " hits / " << pt.cache_misses << " misses), WCET "
         << pt.wcet_cycles << " cycles, ratio " << pt.ratio << "\n";
    EXPECT_EQ(responses[1].find("output")->as_string(), want.str());
  }
  { // spmwcet sweep adpcm --cache (restricted to two sizes)
    harness::SweepConfig cfg;
    cfg.setup = harness::MemSetup::Cache;
    cfg.sizes = {64, 128};
    const auto points = harness::run_matrix({{wl.get(), cfg}}, 1).front();
    std::ostringstream want;
    // The CLI titles sweep tables with the workload's display name.
    harness::to_table(wl->name, harness::MemSetup::Cache, points).render(want);
    EXPECT_EQ(responses[2].find("output")->as_string(), want.str());
  }
}

TEST(Serve, StructuredPointFieldsMatchPipeline) {
  api::Engine engine;
  const auto responses = serve(
      "{\"v\":1,\"id\":1,\"op\":\"point\",\"workload\":\"multisort\","
      "\"setup\":\"cache\",\"size\":256}\n",
      engine);
  ASSERT_EQ(responses.size(), 1u);
  const json::Value* result = responses[0].find("result");
  ASSERT_NE(result, nullptr);
  harness::SweepConfig cfg;
  cfg.setup = harness::MemSetup::Cache;
  const auto expected = harness::detail::execute_point(
      *workloads::WorkloadRegistry::instance().benchmark("multisort"),
      harness::MemSetup::Cache, 256, cfg);
  const json::Value* pt = result->find("point");
  ASSERT_NE(pt, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(pt->find("sim_cycles")->as_int()),
            expected.sim_cycles);
  EXPECT_EQ(static_cast<uint64_t>(pt->find("wcet_cycles")->as_int()),
            expected.wcet_cycles);
  EXPECT_EQ(static_cast<uint64_t>(pt->find("cache_hits")->as_int()),
            expected.cache_hits);
  EXPECT_EQ(static_cast<uint64_t>(pt->find("cache_misses")->as_int()),
            expected.cache_misses);
  EXPECT_DOUBLE_EQ(pt->find("ratio")->as_double(), expected.ratio);
  EXPECT_DOUBLE_EQ(pt->find("energy_nj")->as_double(), expected.energy_nj);
}

// ---- wire fuzz hardening --------------------------------------------------
//
// Seeded (reproducible) fuzz battery: whatever bytes arrive, the codec must
// return ok or a typed ApiError — never crash, hang, or leak an exception —
// and a serve session over a real Engine must answer every non-blank line.

/// The contract every fuzz input is held to.
void expect_total(const std::string& line) {
  const api::Result<api::wire::AnyRequest> parsed =
      api::wire::parse_request(line);
  if (!parsed.ok()) {
    // The code must be one of the published ones — to_string on a
    // corrupted enum would die on the internal CHECK.
    EXPECT_NE(api::to_string(parsed.error().code), nullptr);
    EXPECT_FALSE(parsed.error().message.empty());
  }
  (void)api::wire::probe_id(line); // must also be total
}

/// Valid corpus covering every op and the options vocabulary — the
/// interesting mutants are near-misses of real requests.
std::vector<std::string> fuzz_corpus() {
  return {
      R"({"v":1,"id":1,"op":"ping"})",
      R"({"v":1,"id":2,"op":"point","workload":"bubble","setup":"spm","size":1024})",
      R"({"v":1,"id":3,"op":"point","workload":"g721","setup":"cache","size":512,"render":"text","options":{"assoc":2,"unified":false,"persistence":true}})",
      R"({"v":1,"id":4,"op":"sweep","workloads":["bubble","adpcm"],"setup":"spm","sizes":[64,128],"render":"csv"})",
      R"({"v":1,"id":5,"op":"eval","workloads":["multisort"],"sizes":[64],"options":{"wcet_alloc":true}})",
      R"({"v":1,"id":6,"op":"simbench","repeat":2,"spm":4096})",
      R"({"v":1,"id":7,"op":"wcetbench","repeat":1})",
      R"({"v":1,"id":8,"op":"simbench","repeat":1})",
      R"({"v":1,"id":9,"op":"point","workload":"gen:loopy:42","setup":"spm","size":64})",
      R"({"v":1,"id":10,"op":"corpus","shape":"tiny","base":1,"count":2,"setup":"spm","sizes":[64]})",
  };
}

TEST(WireFuzz, RandomBytesAreAlwaysAnswered) {
  std::mt19937 rng(0xC0FFEE);
  expect_total("");
  for (int i = 0; i < 1500; ++i) {
    std::string line(rng() % 200, '\0');
    for (char& c : line) c = static_cast<char>(rng() % 256);
    expect_total(line);
  }
}

TEST(WireFuzz, MutatedRequestsAreAlwaysAnswered) {
  std::mt19937 rng(20260807);
  const std::vector<std::string> corpus = fuzz_corpus();
  for (const std::string& line : corpus) expect_total(line);
  for (int i = 0; i < 3000; ++i) {
    std::string s = corpus[rng() % corpus.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) s = mutate(s, rng, corpus);
    expect_total(s);
  }
}

TEST(WireFuzz, OversizedPayloadsAreRejectedNotBuffered) {
  // Multi-megabyte single line: answered (with an error), not hung on.
  expect_total(std::string(4u << 20, 'a'));
  expect_total("{\"v\":1,\"op\":\"ping\",\"pad\":\"" +
               std::string(1u << 20, 'x') + "\"}");
  // A sizes array beyond the request bound is a typed out_of_range.
  std::string sizes = R"({"v":1,"op":"sweep","workloads":["bubble"],)";
  sizes += "\"setup\":\"spm\",\"sizes\":[";
  for (uint32_t i = 0; i < api::kMaxSizesPerRequest + 8; ++i)
    sizes += (i ? ",64" : "64");
  sizes += "]}";
  const auto parsed = api::wire::parse_request(sizes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::OutOfRange);
  // Nesting bombs are parse errors, not stack overflows (pinned above for
  // the JSON layer; pinned here through the request codec).
  expect_total(std::string(200'000, '[') + "1" + std::string(200'000, ']'));
}

TEST(ServeFuzz, FuzzedSessionAgainstRealEngineStaysLive) {
  std::mt19937 rng(7);
  const std::vector<std::string> corpus = fuzz_corpus();
  // Cheap valid requests only — the fuzz session exercises the serve loop,
  // not the pipeline's cost.
  const std::vector<std::string> cheap = {
      corpus[0],
      R"({"v":1,"id":2,"op":"point","workload":"bubble","setup":"spm","size":64})",
      R"({"v":1,"id":4,"op":"sweep","workloads":["bubble"],"setup":"spm","sizes":[64]})",
  };
  std::string script;
  std::size_t expected = 0;
  for (int i = 0; i < 400; ++i) {
    std::string line = (rng() % 3 == 0)
                           ? cheap[rng() % cheap.size()]
                           : mutate(corpus[rng() % corpus.size()], rng, corpus);
    // Newlines inside a mutant would split it into several wire lines;
    // keep the 1 request : 1 response accounting exact.
    for (char& c : line)
      if (c == '\n') c = ' ';
    if (!api::is_blank_line(line)) ++expected;
    script += line + "\n";
  }
  script += corpus[0] + "\n"; // final ping proves the session is live
  ++expected;

  api::Engine engine;
  std::istringstream in(script);
  std::ostringstream out;
  const api::ServeStats stats = api::serve_loop(engine, in, out);
  EXPECT_EQ(stats.lines, expected);
  EXPECT_EQ(stats.ok + stats.errors, expected);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t responses = 0;
  json::Value last;
  while (std::getline(lines, line)) {
    last = json::parse(line); // every response is valid JSON…
    ASSERT_NE(last.find("ok"), nullptr);
    ++responses;
  }
  EXPECT_EQ(responses, expected); // …and every non-blank line got one
  EXPECT_TRUE(last.find("ok")->as_bool()); // the final ping succeeded
}

// ---- fault-spec fuzzing -----------------------------------------------------

std::vector<std::string> fault_spec_corpus() {
  return {
      "seed=42,socket.read.short=0.05,"
      "engine.compute.throw=0.01:times=3:skip=10:ms=20",
      "engine.compute.delay=1.0:ms=5",
      " seed=7, test.spec=1.0:times=2:skip=1:ms=25,\n bad-entry",
      "listener.accept.fail=0.5:skip=2,socket.write.fail=0:times=0",
      "socket.read.eintr=0.25:times=1:skip=0:ms=0,test.mod=0.1:wat=3",
  };
}

/// The spec's non-empty entries, split and trimmed the way arm_from_spec
/// does, and how many of them name the seed.
std::pair<int, int> spec_entries(const std::string& spec) {
  int entries = 0, seeds = 0;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t end = spec.find(',', at);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(at, end - at);
    at = end + 1;
    const std::size_t first = entry.find_first_not_of(" \t\n");
    if (first == std::string::npos) continue;
    ++entries;
    const std::string trimmed = entry.substr(first);
    if (trimmed.compare(0, trimmed.find('='), "seed") == 0 &&
        trimmed.find('=') != std::string::npos)
      ++seeds;
  }
  return {entries, seeds};
}

TEST(FaultSpecFuzz, MutantsArmOrWarnAndNothingFiresAfterDisarm) {
  // SPMWCET_FAULTS is read at process start, so its parser must survive
  // any input: each entry of a mutated spec arms a site, sets the seed, or
  // is skipped with a warning, and the call never throws. disarm_all()
  // then silences every site the mutants armed.
  std::mt19937 rng(20261017);
  const std::vector<std::string> corpus = fault_spec_corpus();
  const std::string warning = "SPMWCET_FAULTS: ignoring '";
  int total_armed = 0, total_warned = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string spec = corpus[rng() % corpus.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) spec = mutate(spec, rng, corpus);

    testing::internal::CaptureStderr();
    int armed = 0;
    EXPECT_NO_THROW(armed = support::fault::arm_from_spec(spec)) << spec;
    const std::string log = testing::internal::GetCapturedStderr();
    int warned = 0;
    for (std::size_t at = log.find(warning); at != std::string::npos;
         at = log.find(warning, at + 1))
      ++warned;
    const auto [entries, seeds] = spec_entries(spec);
    EXPECT_GE(armed + warned, entries - seeds) << spec;
    EXPECT_LE(armed + warned, entries) << spec;
    total_armed += armed;
    total_warned += warned;

    support::fault::disarm_all();
    EXPECT_FALSE(support::fault::enabled()) << spec;
    for (const auto& [site, stats] : support::fault::all_stats())
      EXPECT_FALSE(support::fault::fire(site.c_str())) << site;
  }
  // Both outcomes occur, so neither half of the property is vacuous.
  EXPECT_GT(total_armed, 0);
  EXPECT_GT(total_warned, 0);
}

} // namespace
} // namespace spmwcet
