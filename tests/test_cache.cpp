// Cache library tests: functional direct-mapped/LRU behaviour and the
// soundness contracts of the reference abstract domains
// (tests/reference/abstract_cache.h):
//   * MUST underapproximates: a line the MUST cache guarantees is always in
//     the concrete cache, for any concrete trace consistent with the
//     abstract one;
//   * PERSISTENCE: a persistent line misses at most once in its scope.
#include <gtest/gtest.h>

#include <random>

#include "cache/functional_cache.h"
#include "reference/abstract_cache.h"

namespace spmwcet::cache {
namespace {

CacheConfig dm(uint32_t size) {
  CacheConfig cfg;
  cfg.size_bytes = size;
  cfg.line_bytes = 16;
  cfg.assoc = 1;
  return cfg;
}

CacheConfig lru(uint32_t size, uint32_t assoc) {
  CacheConfig cfg = dm(size);
  cfg.assoc = assoc;
  return cfg;
}

TEST(Geometry, IndexArithmetic) {
  const CacheConfig cfg = dm(256); // 16 lines
  EXPECT_EQ(cfg.num_lines(), 16u);
  EXPECT_EQ(cfg.num_sets(), 16u);
  EXPECT_EQ(cfg.line_of(0), 0u);
  EXPECT_EQ(cfg.line_of(15), 0u);
  EXPECT_EQ(cfg.line_of(16), 1u);
  EXPECT_EQ(cfg.set_of(16 * 16), 0u); // wraps around
  EXPECT_EQ(cfg.tag_of_line(cfg.line_of(16 * 16)), 1u);
}

TEST(Geometry, AssociativityReducesSets) {
  const CacheConfig cfg = lru(256, 4);
  EXPECT_EQ(cfg.num_sets(), 4u);
  cfg.validate();
}

TEST(FunctionalCache, DirectMappedConflicts) {
  FunctionalCache c(dm(64)); // 4 lines
  EXPECT_FALSE(c.access(0x000));  // miss
  EXPECT_TRUE(c.access(0x004));   // same line
  EXPECT_FALSE(c.access(0x040));  // conflicts with line 0 (4 sets * 16B)
  EXPECT_FALSE(c.access(0x000));  // evicted by the conflict
  EXPECT_EQ(c.misses(), 3u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(FunctionalCache, LruReplacementOrder) {
  FunctionalCache c(lru(64, 4)); // one set of 4 ways, 16B lines
  // Fill the set with lines A, B, C, D (all map to set 0).
  const uint32_t A = 0x000, B = 0x040, C = 0x080, D = 0x0C0, E = 0x100;
  for (const uint32_t a : {A, B, C, D}) EXPECT_FALSE(c.access(a));
  EXPECT_TRUE(c.access(A));  // A becomes MRU
  EXPECT_FALSE(c.access(E)); // evicts LRU = B
  EXPECT_FALSE(c.access(B)); // B was evicted
  EXPECT_TRUE(c.access(A));  // A survived
}

TEST(FunctionalCache, ProbeDoesNotDisturbState) {
  FunctionalCache c(lru(64, 2));
  c.access(0x000);
  c.access(0x040);
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x200));
  // Probing must not reorder LRU: 0x000 is still LRU, so a new line
  // evicts it.
  c.access(0x080);
  EXPECT_FALSE(c.contains(0x000));
  EXPECT_TRUE(c.contains(0x040));
}

TEST(FunctionalCache, FlushEmptiesEverything) {
  FunctionalCache c(dm(128));
  for (uint32_t a = 0; a < 128; a += 16) c.access(a);
  c.flush();
  for (uint32_t a = 0; a < 128; a += 16) EXPECT_FALSE(c.contains(a));
}

// ---- MUST --------------------------------------------------------------

TEST(MustCache, KnownAccessGuaranteesHit) {
  MustCache m(dm(256));
  EXPECT_FALSE(m.contains_line(3));
  m.access_line(3);
  EXPECT_TRUE(m.contains_line(3));
}

TEST(MustCache, DirectMappedConflictRemovesGuarantee) {
  const CacheConfig cfg = dm(64); // 4 sets
  MustCache m(cfg);
  m.access_line(0);
  m.access_line(4); // same set (4 sets), different tag
  EXPECT_FALSE(m.contains_line(0));
  EXPECT_TRUE(m.contains_line(4));
}

TEST(MustCache, JoinIsIntersection) {
  MustCache a(dm(256)), b(dm(256));
  a.access_line(1);
  a.access_line(2);
  b.access_line(2);
  b.access_line(3);
  a.join_with(b);
  EXPECT_FALSE(a.contains_line(1));
  EXPECT_TRUE(a.contains_line(2));
  EXPECT_FALSE(a.contains_line(3));
}

TEST(MustCache, UnknownRangeAgesTouchedSets) {
  const CacheConfig cfg = dm(128); // 8 sets
  MustCache m(cfg);
  m.access_line(0);  // set 0
  m.access_line(1);  // set 1
  m.access_line(5);  // set 5
  // One access somewhere in lines [8, 9] — sets 0 and 1 may be evicted.
  m.access_line_range(8, 9);
  EXPECT_FALSE(m.contains_line(0));
  EXPECT_FALSE(m.contains_line(1));
  EXPECT_TRUE(m.contains_line(5));
}

TEST(MustCache, LruAgingEvictsOldest) {
  const CacheConfig cfg = lru(64, 2); // 2 sets x 2 ways
  MustCache m(cfg);
  m.access_line(0); // set 0
  m.access_line(2); // set 0, ages line 0 to 1
  EXPECT_TRUE(m.contains_line(0));
  EXPECT_TRUE(m.contains_line(2));
  m.access_line(4); // set 0, evicts line 0 (age 2 = assoc)
  EXPECT_FALSE(m.contains_line(0));
  EXPECT_TRUE(m.contains_line(2));
}

// ---- PERSISTENCE ----------------------------------------------------------

TEST(PersistenceCache, SurvivingLineIsPersistent) {
  const CacheConfig cfg = dm(64); // 4 sets
  PersistenceCache p(cfg);
  p.access_line(0);
  p.access_line(1); // different set: no interference
  EXPECT_TRUE(p.persistent_line(0));
  EXPECT_TRUE(p.persistent_line(1));
}

TEST(PersistenceCache, ConflictBreaksPersistence) {
  const CacheConfig cfg = dm(64); // 4 sets
  PersistenceCache p(cfg);
  p.access_line(0);
  p.access_line(4); // same set, evicts in a DM cache
  EXPECT_FALSE(p.persistent_line(0));
  EXPECT_TRUE(p.persistent_line(4));
}

TEST(PersistenceCache, JoinKeepsWorstAge) {
  const CacheConfig cfg = lru(64, 2);
  PersistenceCache a(cfg), b(cfg);
  a.access_line(0);
  b.access_line(0);
  b.access_line(2); // ages line 0 in b
  b.access_line(4); // line 0 now possibly evicted in b
  a.join_with(b);
  EXPECT_FALSE(a.persistent_line(0));
}

// ---- Randomized soundness properties ------------------------------------

struct TraceEvent {
  bool is_range; ///< unknown one-of-range access
  uint32_t line;
  uint32_t lo, hi;
};

class AbstractSoundness
    : public ::testing::TestWithParam<std::tuple<unsigned, uint32_t, uint32_t>> {
};

TEST_P(AbstractSoundness, MustSubsetOfConcrete) {
  const auto [seed, size, assoc] = GetParam();
  const CacheConfig cfg = lru(size, assoc);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> line_d(0, 63);
  std::uniform_int_distribution<int> kind_d(0, 9);

  // Build an abstract trace; resolve range events randomly for the
  // concrete run (the abstract domains must cover every resolution).
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 300; ++i) {
    TraceEvent ev{};
    if (kind_d(rng) == 0) {
      ev.is_range = true;
      ev.lo = line_d(rng);
      ev.hi = ev.lo + line_d(rng) % 8;
    } else {
      ev.line = line_d(rng);
    }
    trace.push_back(ev);
  }

  MustCache must(cfg);
  FunctionalCache concrete(cfg);
  std::mt19937 resolve_rng(seed ^ 0x9e3779b9u);

  for (const TraceEvent& ev : trace) {
    // Check the guarantee *before* the access for every line.
    for (uint32_t line = 0; line < 72; ++line) {
      const uint32_t addr = line * cfg.line_bytes;
      if (must.contains_line(line)) {
        ASSERT_TRUE(concrete.contains(addr))
            << "MUST claimed line " << line << " but concrete evicted it";
      }
    }
    if (ev.is_range) {
      std::uniform_int_distribution<uint32_t> pick(ev.lo, ev.hi);
      const uint32_t actual = pick(resolve_rng);
      concrete.access(actual * cfg.line_bytes);
      must.access_line_range(ev.lo, ev.hi);
    } else {
      concrete.access(ev.line * cfg.line_bytes);
      must.access_line(ev.line);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, AbstractSoundness,
    ::testing::Combine(::testing::Range(1u, 9u),
                       ::testing::Values(64u, 256u, 512u),
                       ::testing::Values(1u, 2u, 4u)));

class PersistenceSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(PersistenceSoundness, PersistentLinesMissAtMostOnce) {
  const CacheConfig cfg = lru(128, 2);
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<uint32_t> line_d(0, 15);

  std::vector<uint32_t> trace;
  for (int i = 0; i < 200; ++i) trace.push_back(line_d(rng));

  // Abstract pass over the whole trace (single global scope).
  PersistenceCache pers(cfg);
  for (const uint32_t line : trace) pers.access_line(line);

  // Concrete pass counting misses per line.
  FunctionalCache concrete(cfg);
  std::map<uint32_t, int> misses;
  for (const uint32_t line : trace)
    if (!concrete.access(line * cfg.line_bytes)) ++misses[line];

  for (const auto& [line, count] : misses)
    if (pers.persistent_line(line)) {
      EXPECT_LE(count, 1) << "persistent line " << line << " missed " << count
                          << " times";
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, PersistenceSoundness,
                         ::testing::Range(1u, 13u));

} // namespace
} // namespace spmwcet::cache
