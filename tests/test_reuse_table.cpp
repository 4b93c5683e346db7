// The reuse table (cache/reuse_table.h) against its oracle, the
// FunctionalCache simulation (SimConfig::cache): one table per
// associativity, whose hits, misses and cycles must be field-exact for
// every covered size of it, 16 B to 1 MiB, direct-mapped to fully
// associative, unified and instruction-only. Both consume the read stream
// the compiled blocks report, so the stream itself is held against the
// seed simulator (reference::simulate): a recorder it feeds one access at a
// time must build the same table, and its per-access cache the same
// outcomes. Also covers the observed run itself
// (self-modifying code, the instruction budget), the harness's
// per-workload table artifact, and the canonical run an observed run hands
// in (the fused run).
#include <gtest/gtest.h>

#include "api/engine.h"
#include "harness/artifact_cache.h"
#include "harness/sweep_runner.h"
#include "isa/encode.h"
#include "link/layout.h"
#include "reference/simulator.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "support/thread_pool.h"
#include "workloads/generated.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

using cache::CacheConfig;
using cache::ReuseTable;

ReuseTable record(const link::Image& img, bool unified, uint32_t assoc) {
  ReuseTable::Builder rec(img.regions, unified, assoc);
  sim::SimConfig cfg;
  cfg.reuse = &rec;
  sim::Simulator s(img, cfg);
  const sim::SimResult run = s.run();
  // Observed runs serve SP-relative accesses by offset and report them to
  // the builder themselves, and leave the compiled blocks only where a
  // self-modifying store invalidated one.
  EXPECT_TRUE(s.stack_window_active());
  EXPECT_EQ(s.fallback_instructions() > 0, s.block_invalidations() > 0);
  return rec.finish(run.cycles);
}

ReuseTable::Outcome simulate_with(const link::Image& img,
                                  const CacheConfig& ccfg) {
  sim::SimConfig cfg;
  cfg.cache = ccfg;
  const sim::SimResult run = sim::simulate(img, cfg);
  return {run.cache_hits, run.cache_misses, run.cycles};
}

CacheConfig geometry(uint32_t size, uint32_t assoc, bool unified) {
  CacheConfig c;
  c.size_bytes = size;
  c.line_bytes = 16;
  c.assoc = assoc;
  c.unified = unified;
  return c;
}

void expect_outcome(const ReuseTable& table, const link::Image& img,
                    const CacheConfig& c, const std::string& what) {
  const ReuseTable::Outcome want = simulate_with(img, c);
  const ReuseTable::Outcome got = table.lookup(c);
  const std::string where = what + " size " + std::to_string(c.size_bytes) +
                            " assoc " + std::to_string(c.assoc) +
                            (c.unified ? " unified" : " icache");
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.cycles, want.cycles) << where;
}

/// Every power-of-two geometry from 16 B to 1 MiB, direct-mapped to fully
/// associative, both cache kinds: one table per associativity.
void expect_table_exact(const link::Image& img, const std::string& what) {
  for (const bool unified : {true, false})
    for (uint32_t assoc = 1; assoc <= (1u << 16); assoc *= 2) {
      const ReuseTable table = record(img, unified, assoc);
      for (uint32_t size = 16 * assoc; size <= (1u << 20); size *= 2)
        expect_outcome(table, img, geometry(size, assoc, unified), what);
    }
}

TEST(ReuseTable, PaperTrioMatchesFunctionalCacheEverywhere) {
  for (const auto& wl : workloads::cached_paper_benchmarks())
    expect_table_exact(link::link_program(wl->module, {}, {}), wl->name);
}

TEST(ReuseTable, GeneratedProgramsMatchFunctionalCache) {
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= 20; ++seed) {
      const std::string name = "gen:" + shape + ":" + std::to_string(seed);
      const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
      expect_table_exact(link::link_program(wl->module, {}, {}), name);
    }
}

/// The reference's outcome for `c`; counts as one reference run.
ReuseTable::Outcome reference_outcome(const link::Image& img,
                                      const CacheConfig& c) {
  sim::SimConfig cfg;
  cfg.cache = c;
  const sim::SimResult run = reference::simulate(img, cfg);
  return {run.cache_hits, run.cache_misses, run.cycles};
}

// The table and the production cached run against the seed simulator,
// which charges its cache per access one instruction at a time: the
// compiled blocks must report fetches and loads in program order.
TEST(ReuseTable, EveryExecutionPathObservesTheSameStream) {
  const uint64_t runs = reference::simulator_runs();
  uint64_t compared = 0;
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image img = link::link_program(wl->module, {}, {});
    for (const bool unified : {true, false}) {
      const ReuseTable direct = record(img, unified, 1);
      const ReuseTable two_way = record(img, unified, 2);
      for (uint32_t size = 16; size <= (1u << 20); size *= 4) {
        const CacheConfig c = geometry(size, size >= 64 ? 2 : 1, unified);
        const ReuseTable& table = c.assoc == 1 ? direct : two_way;
        const ReuseTable::Outcome want = reference_outcome(img, c);
        ++compared;
        const std::string where = wl->name + " " + std::to_string(size) +
                                  (unified ? " unified" : " icache");
        EXPECT_EQ(table.lookup(c), want) << where;
        EXPECT_EQ(simulate_with(img, c), want) << where;
      }
    }
  }
  EXPECT_EQ(reference::simulator_runs(), runs + compared);
}

TEST(ReuseTable, ScratchpadAccessesStayOutOfTheStreams) {
  // A placed image: SPM fetches and loads bypass the cache in the oracle,
  // and must not enter either recorded stream.
  const auto wl = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  link::LinkOptions opts;
  opts.spm_size = 1024;
  link::SpmAssignment some;
  some.functions.insert(wl->module.functions.front().name);
  some.globals.insert(wl->module.globals.front().name);
  expect_table_exact(link::link_program(wl->module, opts, some), "adpcm/spm");
}

/// A loop whose second block rewrites an instruction of the first (already
/// executed) block, then re-enters it: the block must be invalidated and
/// its instructions run one at a time, and the observed stream must still
/// match the oracle.
minic::ObjModule selfmod_loop_module(uint32_t target_addr) {
  using isa::Instr;
  using isa::Op;
  const uint16_t patched =
      isa::encode(Instr{.op = Op::MOVI, .rd = 3, .imm = 42});
  minic::ObjFunction f;
  f.name = "main";
  const int loop = f.new_label();
  const int skip = f.new_label();
  auto push_ins = [&](Instr ins, int label = -1) {
    minic::ObjInstr oi;
    oi.ins = ins;
    oi.label = label;
    f.code.push_back(oi);
  };
  push_ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0});
  push_ins(Instr{.op = Op::MOVI, .rd = 4, .imm = 0});
  f.bind_label(loop);
  push_ins(Instr{.op = Op::MOVI, .rd = 3, .imm = 7}); // index 2: patched
  push_ins(Instr{.op = Op::SYS,
                 .sub = static_cast<uint8_t>(isa::SysFn::OUT),
                 .rd = 3});
  push_ins(Instr{.op = Op::B}, skip);
  f.bind_label(skip);
  push_ins(Instr{.op = Op::MOVI, .rd = 0,
                 .imm = static_cast<int32_t>((target_addr >> 8) & 0xff)});
  push_ins(Instr{.op = Op::SHIFTI, .sub = 0, .rd = 0, .imm = 8});
  push_ins(Instr{.op = Op::ADDI, .rd = 0,
                 .imm = static_cast<int32_t>(target_addr & 0xff)});
  push_ins(Instr{.op = Op::MOVI, .rd = 1,
                 .imm = static_cast<int32_t>((patched >> 8) & 0xff)});
  push_ins(Instr{.op = Op::SHIFTI, .sub = 0, .rd = 1, .imm = 8});
  push_ins(Instr{.op = Op::ADDI, .rd = 1,
                 .imm = static_cast<int32_t>(patched & 0xff)});
  push_ins(Instr{.op = Op::LDR_SP, .rd = 2, .imm = 0}); // a load per pass
  push_ins(Instr{.op = Op::STRH, .rd = 1, .rn = 0, .imm = 0});
  push_ins(Instr{.op = Op::ADDI, .rd = 4, .imm = 1});
  push_ins(Instr{.op = Op::CMPI, .rd = 4, .imm = 2});
  push_ins(Instr{.op = Op::BCC,
                 .sub = static_cast<uint8_t>(isa::Cond::LT)},
           loop);
  push_ins(Instr{.op = Op::POP, .sub = 1, .imm = 0});
  minic::ObjModule mod;
  mod.functions.push_back(std::move(f));
  return mod;
}

/// The self-modifying program, linked with the patched instruction's
/// address.
link::Image selfmod_image() {
  const link::Image probe = link::link_program(selfmod_loop_module(0));
  const link::Symbol* main_sym = probe.find_symbol("main");
  SPMWCET_CHECK(main_sym != nullptr);
  const uint32_t target = main_sym->addr + 2 * 2;
  SPMWCET_CHECK_MSG(target < 0x10000u, "two-byte immediate construction");
  return link::link_program(selfmod_loop_module(target));
}

TEST(ReuseTable, SelfModifyingProgramMatchesFunctionalCache) {
  const link::Image img = selfmod_image();

  ReuseTable::Builder rec(img.regions, true, 1);
  sim::SimConfig cfg;
  cfg.reuse = &rec;
  sim::Simulator s(img, cfg);
  const sim::SimResult run = s.run();
  EXPECT_TRUE(s.stack_window_active());
  ASSERT_EQ(run.output, (std::vector<int32_t>{7, 42}));
  EXPECT_EQ(s.block_invalidations(), 1u);
  EXPECT_GT(s.fallback_instructions(), 0u);
  expect_table_exact(img, "selfmod");
  for (const bool unified : {true, false}) {
    const CacheConfig c = geometry(64, 1, unified);
    EXPECT_EQ(simulate_with(img, c), reference_outcome(img, c));
  }
}

/// The table of a recorder the seed simulator feeds one halfword fetch and
/// one main-memory load at a time, in program order; counts as one
/// reference run.
ReuseTable reference_table(const link::Image& img, bool unified,
                           uint32_t assoc) {
  ReuseTable::Builder rec(img.regions, unified, assoc);
  sim::SimConfig cfg;
  cfg.reuse = &rec;
  const sim::SimResult run = reference::simulate(img, cfg);
  return rec.finish(run.cycles);
}

constexpr uint32_t kAssociativities = 17; ///< 1 .. 2^16 ways

/// Production's table lookup-equal to the per-access reference table at
/// every covered geometry, both cache kinds: one table per associativity.
void expect_reference_table(const link::Image& img, const std::string& what) {
  for (const bool unified : {true, false})
    for (uint32_t assoc = 1; assoc <= (1u << 16); assoc *= 2) {
      const ReuseTable got = record(img, unified, assoc);
      const ReuseTable want = reference_table(img, unified, assoc);
      for (uint32_t size = 16 * assoc; size <= (1u << 20); size *= 2) {
        const CacheConfig c = geometry(size, assoc, unified);
        EXPECT_EQ(got.lookup(c), want.lookup(c))
            << what << " size " << size << " assoc " << assoc
            << (unified ? " unified" : " icache");
      }
    }
}

// The observed stream per access: the compiled blocks' precomputed fetch
// runs and their inline loads must hand the recorder exactly what the seed
// simulator hands it one access at a time.
TEST(ReuseTable, EveryTableEqualsThePerAccessReference) {
  const uint64_t runs = reference::simulator_runs();
  uint64_t programs = 0;
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    expect_reference_table(link::link_program(wl->module, {}, {}), wl->name);
    ++programs;
  }
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= 20; ++seed) {
      const std::string name = "gen:" + shape + ":" + std::to_string(seed);
      const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
      expect_reference_table(link::link_program(wl->module, {}, {}), name);
      ++programs;
    }
  expect_reference_table(selfmod_image(), "selfmod");
  ++programs;
  EXPECT_EQ(reference::simulator_runs(),
            runs + 2 * kAssociativities * programs);
}

TEST(ReuseTable, RejectsGeometriesOutsideTheTable) {
  const auto wl = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  const ReuseTable table = record(link::link_program(wl->module, {}, {}),
                                  /*unified=*/true, /*assoc=*/1);
  EXPECT_THROW(table.lookup(geometry(1024, 1, /*unified=*/false)), Error);
  // One table answers one associativity.
  EXPECT_TRUE(ReuseTable::supports(geometry(1024, 2, true)));
  EXPECT_THROW(table.lookup(geometry(1024, 2, true)), Error);
  CacheConfig wide_line = geometry(1024, 1, true);
  wide_line.line_bytes = 32;
  EXPECT_FALSE(ReuseTable::supports(wide_line));
  EXPECT_THROW(table.lookup(wide_line), Error);
  const CacheConfig too_many_sets = geometry(2u << 20, 1, true);
  EXPECT_FALSE(ReuseTable::supports(too_many_sets));
  EXPECT_THROW(table.lookup(too_many_sets), Error);
  EXPECT_TRUE(ReuseTable::supports(geometry(1u << 20, 1, true)));
  EXPECT_TRUE(ReuseTable::supports(geometry(1u << 20, 1u << 16, false)));
  EXPECT_FALSE(ReuseTable::supports(geometry(2u << 20, 2, true)));
}

// The direct-mapped recorder sizes its entries from the image's
// main-memory line count; the paper's question runs on it.
TEST(ReuseTable, DirectMappedRecorderStaysSmall) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image img = link::link_program(wl->module, {}, {});
    const ReuseTable::Builder rec(img.regions, true, 1);
    EXPECT_LE(rec.recorder().footprint_bytes(), 80u * 1024) << wl->name;
  }
}

TEST(ReuseTable, ObservationExcludesAFunctionalCache) {
  const auto wl = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  const link::Image img = link::link_program(wl->module, {}, {});
  ReuseTable::Builder rec(img.regions, true, 1);
  sim::SimConfig cfg;
  cfg.reuse = &rec;
  cfg.cache = geometry(1024, 1, true);
  EXPECT_THROW(sim::Simulator(img, cfg), Error);
}

// ---- the harness artifact ---------------------------------------------------

harness::SweepConfig cache_sweep() {
  harness::SweepConfig cfg;
  cfg.setup = harness::MemSetup::Cache;
  return cfg;
}

TEST(ReuseArtifact, OneObservedRunPerWorkloadAndBatch) {
  const auto wl = workloads::make_adpcm(64);
  harness::SweepConfig cfg = cache_sweep();
  harness::ArtifactCache cache;
  cfg.artifacts = &cache;
  (void)harness::run_matrix({{&wl, cfg}}, 4);
  EXPECT_EQ(cache.reuse_stats().misses, 1u);
  EXPECT_EQ(cache.reuse_stats().hits, cfg.sizes.size() - 1);
}

TEST(ReuseArtifact, EnginePointRequestsShareOneTable) {
  api::Engine engine;
  for (const uint32_t size : harness::SweepConfig{}.sizes) {
    const auto res = engine.point(
        api::PointRequest::make("adpcm", harness::MemSetup::Cache, size)
            .value());
    ASSERT_TRUE(res.ok()) << res.error().message;
  }
  EXPECT_EQ(engine.stats().reuse_artifacts.misses, 1u);
  EXPECT_EQ(engine.stats().reuse_artifacts.hits, 7u);
}

// A table answers one associativity: a second one observes again, but the
// canonical run the first observed run handed in serves both.
TEST(ReuseArtifact, EachAssociativityObservesOnce) {
  api::Engine engine;
  for (const uint32_t assoc : {1u, 2u}) {
    api::ExperimentOptions opts;
    opts.cache_assoc = assoc;
    const auto res = engine.point(
        api::PointRequest::make("adpcm", harness::MemSetup::Cache, 1024, opts)
            .value());
    ASSERT_TRUE(res.ok()) << res.error().message;
  }
  const api::EngineStats s = engine.stats();
  EXPECT_EQ(s.reuse_artifacts.misses, 2u);
  EXPECT_EQ(s.profile_artifacts.inserted, 1u);
  EXPECT_EQ(s.profile_artifacts.misses, 0u);
}

// ---- the fused run ----------------------------------------------------------

std::vector<std::string> trio_and_generated_names() {
  std::vector<std::string> names = workloads::paper_benchmark_names();
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= 20; ++seed)
      names.push_back("gen:" + shape + ":" + std::to_string(seed));
  return names;
}

/// Field equality of two canonical runs: the whole SimResult and the
/// candidate table.
void expect_same_canonical_run(const harness::CanonicalRun& got,
                               const harness::CanonicalRun& want,
                               const std::string& what) {
  EXPECT_EQ(got.run.cycles, want.run.cycles) << what;
  EXPECT_EQ(got.run.instructions, want.run.instructions) << what;
  EXPECT_EQ(got.run.cache_hits, want.run.cache_hits) << what;
  EXPECT_EQ(got.run.cache_misses, want.run.cache_misses) << what;
  EXPECT_EQ(got.run.output, want.run.output) << what;
  EXPECT_TRUE(got.run.profile == want.run.profile) << what;
  ASSERT_EQ(got.candidates.size(), want.candidates.size()) << what;
  for (std::size_t i = 0; i < got.candidates.size(); ++i) {
    const alloc::MemoryObject& a = got.candidates[i];
    const alloc::MemoryObject& b = want.candidates[i];
    EXPECT_EQ(a.name, b.name) << what;
    EXPECT_EQ(a.is_function, b.is_function) << what << " " << a.name;
    EXPECT_EQ(a.size_bytes, b.size_bytes) << what << " " << a.name;
    EXPECT_EQ(a.accesses, b.accesses) << what << " " << a.name;
    EXPECT_EQ(a.benefit_nj, b.benefit_nj) << what << " " << a.name;
  }
}

// A cache point on a cache with no canonical run yet: its observed run
// profiles and hands in the canonical run, which must equal a separate
// profiled run field for field.
TEST(FusedRun, ObservedCanonicalRunEqualsTheSeparateProfiledRun) {
  for (const std::string& name : trio_and_generated_names())
    for (const bool unified : {true, false}) {
      const std::string what = name + (unified ? " unified" : " icache");
      const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
      harness::ArtifactCache fused;
      harness::SweepConfig cfg = cache_sweep();
      cfg.cache_unified = unified;
      cfg.artifacts = &fused;
      (void)harness::detail::execute_point(*wl, cfg.setup, 1024, cfg);
      const auto observed = harness::canonical_run(*wl, fused);
      EXPECT_EQ(fused.stats().inserted, 1u) << what;
      EXPECT_EQ(fused.stats().misses, 0u) << what;

      harness::ArtifactCache separate;
      const auto profiled = harness::canonical_run(*wl, separate);
      EXPECT_EQ(separate.stats().misses, 1u) << what;
      EXPECT_EQ(separate.reuse_stats().misses, 0u) << what;
      expect_same_canonical_run(*observed, *profiled, what);
    }
}

// An eval on a fresh Engine at jobs 1 runs the cache series first: the
// observed run is the workload's only simulation, and every SPM point
// prices from the canonical run it handed in.
TEST(FusedRun, EvalSimulatesEachTrioMemberOnce) {
  for (const std::string& name : workloads::paper_benchmark_names()) {
    api::Engine engine;
    const auto res = engine.eval(api::EvalRequest::make({name}).value());
    ASSERT_TRUE(res.ok()) << res.error().render();
    const api::EngineStats s = engine.stats();
    const uint64_t sizes = harness::SweepConfig{}.sizes.size();
    EXPECT_EQ(s.reuse_artifacts.misses, 1u) << name;
    EXPECT_EQ(s.profile_artifacts.misses, 0u) << name;
    EXPECT_EQ(s.profile_artifacts.inserted, 1u) << name;
    EXPECT_EQ(s.profile_artifacts.hits, sizes) << name;
  }
}

// SPM-only work never attaches a recorder; and an observed run that finds
// the canonical run already memoized hands nothing in.
TEST(FusedRun, SpmOnlyWorkNeverObserves) {
  api::Engine engine;
  ASSERT_TRUE(engine
                  .sweep(api::SweepRequest::make(
                             workloads::paper_benchmark_names(),
                             harness::MemSetup::Scratchpad)
                             .value())
                  .ok());
  api::EngineStats s = engine.stats();
  EXPECT_EQ(s.reuse_artifacts.hits + s.reuse_artifacts.misses, 0u);
  EXPECT_EQ(s.profile_artifacts.misses, 3u);
  EXPECT_EQ(s.profile_artifacts.inserted, 0u);

  ASSERT_TRUE(engine
                  .point(api::PointRequest::make(
                             "adpcm", harness::MemSetup::Cache, 1024)
                             .value())
                  .ok());
  s = engine.stats();
  EXPECT_EQ(s.reuse_artifacts.misses, 1u);
  EXPECT_EQ(s.profile_artifacts.misses, 3u);
  EXPECT_EQ(s.profile_artifacts.inserted, 0u);
}

/// A program that never halts: its observed run must stop at the
/// simulator's default instruction budget.
workloads::WorkloadInfo runaway_workload() {
  using isa::Instr;
  using isa::Op;
  minic::ObjFunction f;
  f.name = "main";
  const int loop = f.new_label();
  auto push_ins = [&](Instr ins, int label = -1) {
    minic::ObjInstr oi;
    oi.ins = ins;
    oi.label = label;
    f.code.push_back(oi);
  };
  push_ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0});
  f.bind_label(loop);
  for (int32_t i = 0; i < 32; ++i)
    push_ins(Instr{.op = Op::MOVI, .rd = 3, .imm = i});
  push_ins(Instr{.op = Op::B}, loop);
  workloads::WorkloadInfo wl;
  wl.name = "runaway";
  wl.module.functions.push_back(std::move(f));
  return wl;
}

TEST(ReuseArtifact, BudgetErrorReachesEveryCachePoint) {
  const auto wl = runaway_workload();
  for (const bool batch_cache : {true, false}) {
    harness::SweepConfig cfg = cache_sweep();
    // Each point runs 500M instructions before it fails: two sizes keep the
    // test affordable and still show the error reaching a second point.
    cfg.sizes = {64, 8192};
    harness::ArtifactCache cache;
    cfg.artifacts = batch_cache ? &cache : nullptr;
    std::vector<std::string> errors(cfg.sizes.size());
    support::ThreadPool(2).for_each(cfg.sizes.size(), [&](std::size_t i) {
      try {
        (void)harness::detail::execute_point(wl, cfg.setup, cfg.sizes[i], cfg);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
    for (const std::string& error : errors)
      EXPECT_NE(error.find("instruction budget exceeded"), std::string::npos)
          << error;
    // A failed observation is never cached: every point ran it.
    EXPECT_EQ(cache.reuse_stats().hits, 0u);
  }
}

} // namespace
} // namespace spmwcet
