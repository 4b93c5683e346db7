// Engine thread-safety battery: one shared Engine hammered from 2/4/8
// threads with a mixed request script must produce field-exact results vs
// a serial run, keep every counter consistent (no lost updates), compute
// an identical request exactly once across racing threads, and honor the
// bounded admission gate. These are the invariants the socket serve front
// ends (one session thread per connection) stand on. The suite runs under
// TSAN in CI, so any data race in Engine/Memoizer/ArtifactCache fails
// loudly here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/render.h"
#include "support/fault.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

using api::Engine;
using api::EngineOptions;
using api::EvalRequest;
using api::PointRequest;
using api::SweepRequest;
using api::WcetBenchRequest;
using harness::MemSetup;

/// Renders a Result to the exact bytes the CLI would print — the parity
/// currency of this suite: two runs agree iff every field agrees.
template <typename R>
std::string rendered(const api::Result<R>& result) {
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().render());
  if (!result.ok()) return "<error: " + result.error().render() + ">";
  std::ostringstream os;
  if constexpr (std::is_same_v<R, api::PointResult>)
    api::render_point(result.value(), os);
  else if constexpr (std::is_same_v<R, api::SweepResult>)
    api::render_sweep(result.value(), os, /*csv=*/true);
  else
    api::render_eval(result.value(), os, /*csv=*/true);
  return os.str();
}

/// The mixed script: cheap points across workloads/setups/sizes, a small
/// two-workload sweep, and a one-workload two-size eval. Every entry is
/// rendered so the cross-thread comparison is field-exact.
std::vector<std::string> run_script(Engine& engine) {
  std::vector<std::string> out;
  for (const char* name : {"bubble", "multisort"})
    for (const MemSetup setup : {MemSetup::Scratchpad, MemSetup::Cache})
      for (const uint32_t size : {256u, 1024u}) {
        const auto req = PointRequest::make(name, setup, size);
        out.push_back(rendered(engine.point(req.value())));
      }
  const auto sweep = SweepRequest::make({"bubble", "multisort"},
                                        MemSetup::Scratchpad, {64, 128});
  out.push_back(rendered(engine.sweep(sweep.value())));
  const auto eval = EvalRequest::make({"bubble"}, {64, 128});
  out.push_back(rendered(engine.eval(eval.value())));
  return out;
}

/// N threads run the identical script against one engine; every thread's
/// transcript must match the serial reference exactly.
void hammer_and_compare(const EngineOptions& opts, unsigned threads,
                        const std::vector<std::string>& reference) {
  Engine engine(opts);
  std::vector<std::vector<std::string>> transcripts(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back(
        [&, t] { transcripts[t] = run_script(engine); });
  for (std::thread& th : pool) th.join();
  for (unsigned t = 0; t < threads; ++t) {
    ASSERT_EQ(transcripts[t].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(transcripts[t][i], reference[i])
          << "thread " << t << ", script entry " << i;
  }
}

TEST(EngineConcurrent, ParityWithSerialRunCached) {
  Engine serial((EngineOptions()));
  const std::vector<std::string> reference = run_script(serial);
  for (const unsigned threads : {2u, 4u, 8u})
    hammer_and_compare(EngineOptions(), threads, reference);
}

// Response caching off: every thread genuinely executes the pipeline, so
// the racing happens in the artifact Memoizers and the harness itself, not
// just at the response-cache lookup.
TEST(EngineConcurrent, ParityWithSerialRunUncached) {
  EngineOptions opts;
  opts.cache_responses = false;
  Engine serial(opts);
  const std::vector<std::string> reference = run_script(serial);
  for (const unsigned threads : {2u, 4u, 8u})
    hammer_and_compare(opts, threads, reference);
}

// A wide trio eval: each workload's cache points (dispatched first) and SPM
// points race for the canonical run, which the observed run hands in
// without waiting on a compute in flight (Memoizer::insert_if_absent).
// Repeated on one Engine, every eval must finish with the serial bytes,
// and each workload gets exactly one canonical run either way.
TEST(EngineConcurrent, WideTrioEvalFusesWithoutHanging) {
  const auto req = EvalRequest::make(workloads::paper_benchmark_names());
  ASSERT_TRUE(req.ok());
  Engine serial((EngineOptions()));
  const std::string reference = rendered(serial.eval(req.value()));
  for (int round = 0; round < 3; ++round) {
    EngineOptions opts;
    opts.jobs = 8;
    opts.cache_responses = false;
    Engine engine(opts);
    for (int rep = 0; rep < 2; ++rep)
      EXPECT_EQ(rendered(engine.eval(req.value())), reference)
          << "round " << round << ", eval " << rep;
    const api::EngineStats s = engine.stats();
    EXPECT_EQ(s.reuse_artifacts.misses, 3u) << "round " << round;
    EXPECT_EQ(s.profile_artifacts.misses + s.profile_artifacts.inserted, 3u)
        << "round " << round;
  }
}

// A wcetbench under concurrent point traffic: timings are nondeterministic,
// so the check is structural (it completes, with the expected row shape)
// while points race it for the shared artifact caches.
TEST(EngineConcurrent, WcetBenchUnderConcurrentTraffic) {
  Engine engine((EngineOptions()));
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    const auto req = PointRequest::make("bubble", MemSetup::Cache, 512);
    while (!stop.load()) {
      const auto result = engine.point(req.value());
      ASSERT_TRUE(result.ok());
    }
  });
  const auto bench = WcetBenchRequest::make(/*repeat=*/1);
  const auto result = engine.wcetbench(bench.value());
  stop.store(true);
  noise.join();
  ASSERT_TRUE(result.ok()) << result.error().render();
  EXPECT_FALSE(result.value().rows.empty());
  for (const auto& row : result.value().rows) {
    EXPECT_GT(row.analyses, 0u);
    EXPECT_GT(row.analyses_per_second, 0.0);
  }
}

// Counter consistency: warm the full script once, then hammer it from N
// threads. Every one of the N*R repeat requests must be a response-cache
// hit and every counter update must land — exact equalities, not bounds.
TEST(EngineConcurrent, StatsAreExactUnderConcurrency) {
  constexpr unsigned kThreads = 8;
  Engine engine((EngineOptions()));
  const std::size_t script_len = run_script(engine).size();
  const api::EngineStats warm = engine.stats();
  EXPECT_EQ(warm.requests, script_len);
  EXPECT_EQ(warm.response_hits, 0u);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t)
    pool.emplace_back([&] { (void)run_script(engine); });
  for (std::thread& th : pool) th.join();

  const api::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, script_len * (1 + kThreads));
  EXPECT_EQ(stats.response_hits, script_len * kThreads);
}

// Per-entry once semantics across racing threads: one identical request
// from N threads computes exactly once; the other N-1 are hits.
TEST(EngineConcurrent, IdenticalRequestComputesOnce) {
  constexpr unsigned kThreads = 8;
  Engine engine((EngineOptions()));
  const auto req = PointRequest::make("bubble", MemSetup::Scratchpad, 2048);
  std::vector<std::thread> pool;
  std::vector<std::string> results(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    pool.emplace_back(
        [&, t] { results[t] = rendered(engine.point(req.value())); });
  for (std::thread& th : pool) th.join();
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
  const api::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.response_hits, kThreads - 1);
}

// max_inflight=1 serializes execution entirely (results stay correct) and
// the gate's wait counter proves contention actually happened.
TEST(EngineConcurrent, AdmissionGateBoundsInflight) {
  EngineOptions opts;
  opts.max_inflight = 1;
  opts.cache_responses = false; // every request really executes
  Engine serial(opts);
  const std::vector<std::string> reference = run_script(serial);
  EXPECT_EQ(serial.stats().admission_waits, 0u);

  Engine engine(opts);
  hammer_and_compare(opts, 4, reference);
  Engine gated(opts);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < 4; ++t)
    pool.emplace_back([&] { (void)run_script(gated); });
  for (std::thread& th : pool) th.join();
  EXPECT_GT(gated.stats().admission_waits, 0u);
}

// The gate must also be correct for limits above one: with max_inflight=2
// and 8 threads, results match and nothing deadlocks.
TEST(EngineConcurrent, AdmissionGateLimitTwo) {
  EngineOptions opts;
  opts.max_inflight = 2;
  Engine serial(opts);
  const std::vector<std::string> reference = run_script(serial);
  hammer_and_compare(opts, 8, reference);
}

// A request pushed past its budget by an injected compute delay comes back
// as the typed DeadlineExceeded error — and because only successes are
// cached, the same request succeeds once the stall clears.
TEST(EngineConcurrent, DeadlineExceededIsTypedAndNotCached) {
  support::fault::arm("engine.compute.delay", 1.0, /*times=*/0, /*skip=*/0,
                      /*param=*/60);
  Engine engine((EngineOptions()));
  const auto req = PointRequest::make("bubble", MemSetup::Scratchpad, 256, {},
                                      /*deadline_ms=*/10);
  ASSERT_TRUE(req.ok());
  const auto late = engine.point(req.value());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, api::ErrorCode::DeadlineExceeded);

  // Same coordinates, realistic budget (the 10ms one can genuinely expire
  // under TSAN): succeeds, proving the failure above was never cached.
  support::fault::disarm_all();
  const auto generous = PointRequest::make("bubble", MemSetup::Scratchpad,
                                           256, {}, /*deadline_ms=*/60000);
  const auto retry = engine.point(generous.value());
  EXPECT_TRUE(retry.ok()) << (retry.ok() ? "" : retry.error().render());

  // The budget is deadline-independent identity: the success above now
  // serves an identical request without a deadline from the cache.
  const auto unbounded = PointRequest::make("bubble", MemSetup::Scratchpad,
                                            256);
  const uint64_t hits_before = engine.stats().response_hits;
  EXPECT_TRUE(engine.point(unbounded.value()).ok());
  EXPECT_EQ(engine.stats().response_hits, hits_before + 1);
}

// A batch's points run on pool workers; a point that runs out of budget
// there must still reach the caller as the typed DeadlineExceeded error,
// not a generic ExecutionError.
TEST(EngineConcurrent, SweepDeadlineStaysTypedAcrossThePool) {
  support::fault::arm("engine.compute.delay", 1.0, /*times=*/0, /*skip=*/0,
                      /*param=*/60);
  EngineOptions opts;
  opts.jobs = 4;
  Engine engine(opts);
  const auto req = SweepRequest::make({"adpcm"}, MemSetup::Scratchpad, {}, {},
                                      /*deadline_ms=*/20);
  ASSERT_TRUE(req.ok());
  const auto late = engine.sweep(req.value());
  support::fault::disarm_all();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, api::ErrorCode::DeadlineExceeded)
      << late.error().render();
}

// The WCET-driven greedy checks the budget before every trial, so a bounded
// request on a ~400-object program stops inside the greedy's first round
// instead of finishing the allocation first: fewer placements were priced
// than the program has candidates. A trial bound from the class table
// costs tens of microseconds, so the budget is a fifth of what a linked
// trial needed for the same margin.
TEST(EngineConcurrent, WcetDrivenAllocationStopsAtTheDeadline) {
  Engine engine((EngineOptions()));
  api::ExperimentOptions options;
  options.wcet_driven_alloc = true;
  const auto req = PointRequest::make("gen:callheavy:2", MemSetup::Scratchpad,
                                      1024, options, /*deadline_ms=*/20);
  ASSERT_TRUE(req.ok());
  const auto late = engine.point(req.value());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, api::ErrorCode::DeadlineExceeded);

  const auto wl =
      workloads::WorkloadRegistry::instance().benchmark("gen:callheavy:2");
  const std::size_t candidates =
      wl->module.functions.size() + wl->module.globals.size();
  EXPECT_LT(engine.stats().placement_artifacts.misses, candidates);
}

// With the gate held by a slow request and a bounded queue wait, the next
// request is shed with the typed Overloaded error instead of waiting.
TEST(EngineConcurrent, BoundedQueueWaitShedsWithTypedError) {
  support::fault::arm("engine.compute.delay", 1.0, /*times=*/1, /*skip=*/0,
                      /*param=*/400);
  EngineOptions opts;
  opts.max_inflight = 1;
  opts.max_queue_wait_ms = 20;
  opts.cache_responses = false;
  Engine engine(opts);

  std::atomic<bool> holder_started{false};
  std::thread holder([&] {
    const auto req = PointRequest::make("bubble", MemSetup::Scratchpad, 256);
    holder_started.store(true);
    EXPECT_TRUE(engine.point(req.value()).ok()); // slow: injected 400ms stall
  });
  while (!holder_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100)); // holder is in

  const auto req = PointRequest::make("bubble", MemSetup::Cache, 256);
  const auto shed = engine.point(req.value());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code, api::ErrorCode::Overloaded);
  holder.join();
  support::fault::disarm_all();
  EXPECT_GE(engine.stats().shed, 1u);

  // The gate recovered: the shed request succeeds on retry.
  EXPECT_TRUE(engine.point(req.value()).ok());
}

} // namespace
} // namespace spmwcet
