// IPET path-analysis tests on synthetic CFGs: hand-checked flow models,
// loop-bound and flow-fact constraints, and a property test comparing the
// ILP optimum against exhaustive path enumeration on random DAGs.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <tuple>

#include "wcet/ipet.h"

namespace spmwcet::wcet {
namespace {

/// Builder for synthetic CFGs (no image needed: IPET consumes structure
/// and costs only).
class CfgBuilder {
public:
  explicit CfgBuilder(int blocks) {
    cfg_.name = "synthetic";
    for (int i = 0; i < blocks; ++i) {
      BasicBlock b;
      b.id = i;
      b.first_addr = static_cast<uint32_t>(0x1000 + i * 16);
      b.end_addr = b.first_addr + 16;
      cfg_.blocks.push_back(std::move(b));
    }
  }

  int edge(int from, int to, EdgeKind kind = EdgeKind::Fallthrough) {
    const int e = static_cast<int>(cfg_.edges.size());
    cfg_.edges.push_back(CfgEdge{from, to, kind});
    cfg_.blocks[static_cast<std::size_t>(from)].out_edges.push_back(e);
    cfg_.blocks[static_cast<std::size_t>(to)].in_edges.push_back(e);
    return e;
  }

  void mark_exit(int b) { cfg_.blocks[static_cast<std::size_t>(b)].is_exit = true; }

  uint32_t header_addr(int b) const {
    return cfg_.blocks[static_cast<std::size_t>(b)].first_addr;
  }

  const Cfg& cfg() const { return cfg_; }

private:
  Cfg cfg_;
};

BlockTimes costs(std::vector<uint64_t> cycles,
                 std::map<int, uint64_t> edges = {}) {
  BlockTimes t;
  t.block_cycles = std::move(cycles);
  t.edge_cycles.assign(edges.begin(), edges.end());
  return t;
}

TEST(Ipet, StraightLine) {
  CfgBuilder b(3);
  b.edge(0, 1);
  b.edge(1, 2);
  b.mark_exit(2);
  const LoopInfo loops = find_loops(b.cfg());
  const IpetResult r =
      solve_ipet(b.cfg(), loops, Annotations{}, costs({5, 7, 11}));
  EXPECT_EQ(r.wcet, 23u);
  EXPECT_EQ(r.block_counts, (std::vector<uint64_t>{1, 1, 1}));
}

TEST(Ipet, DiamondTakesTheExpensiveArm) {
  CfgBuilder b(4);
  b.edge(0, 1, EdgeKind::Taken);
  b.edge(0, 2);
  b.edge(1, 3);
  b.edge(2, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  const IpetResult r =
      solve_ipet(b.cfg(), loops, Annotations{}, costs({1, 100, 5, 1}));
  EXPECT_EQ(r.wcet, 102u);
  EXPECT_EQ(r.block_counts[1], 1u);
  EXPECT_EQ(r.block_counts[2], 0u);
}

TEST(Ipet, EdgeCostsCharged) {
  CfgBuilder b(4);
  const int taken = b.edge(0, 1, EdgeKind::Taken);
  b.edge(0, 2);
  b.edge(1, 3);
  b.edge(2, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  // Equal arm costs; only the taken-edge penalty differentiates.
  const IpetResult r = solve_ipet(b.cfg(), loops, Annotations{},
                                  costs({1, 5, 5, 1}, {{taken, 2}}));
  EXPECT_EQ(r.wcet, 9u); // 1 + 5 + 1 + taken penalty 2
}

TEST(Ipet, LoopBoundLimitsIterations) {
  // 0 -> 1(header) -> 2(body) -> 1 ; 1 -> 3(exit)
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);          // into the body
  b.edge(2, 1, EdgeKind::Taken); // back edge
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  ASSERT_EQ(loops.loops.size(), 1u);
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 10);
  const IpetResult r =
      solve_ipet(b.cfg(), loops, ann, costs({2, 3, 20, 1}));
  // entry(2) + 11 header visits (3) + 10 bodies (20) + exit(1)
  EXPECT_EQ(r.wcet, 2 + 11 * 3 + 10 * 20 + 1);
  EXPECT_EQ(r.block_counts[2], 10u);
}

TEST(Ipet, ZeroBoundLoopNeverIterates) {
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 1, EdgeKind::Taken);
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 0);
  const IpetResult r = solve_ipet(b.cfg(), loops, ann, costs({2, 3, 20, 1}));
  EXPECT_EQ(r.wcet, 2 + 3 + 1);
}

TEST(Ipet, MissingBoundIsAnError) {
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 1, EdgeKind::Taken);
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  EXPECT_THROW(
      solve_ipet(b.cfg(), loops, Annotations{}, costs({1, 1, 1, 1})),
      AnnotationError);
}

TEST(Ipet, NestedLoopsMultiply) {
  // 0 -> 1(outer hdr) -> 2(inner hdr) -> 3(inner body) -> 2 ; 2 -> 4 -> 1;
  // 1 -> 5 exit
  CfgBuilder b(6);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 3);
  b.edge(3, 2, EdgeKind::Taken);
  b.edge(2, 4);
  b.edge(4, 1, EdgeKind::Taken);
  b.edge(1, 5);
  b.mark_exit(5);
  const LoopInfo loops = find_loops(b.cfg());
  ASSERT_EQ(loops.loops.size(), 2u);
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 3); // outer: 3 iterations
  ann.set_loop_bound(b.header_addr(2), 4); // inner: 4 per outer iteration
  const IpetResult r =
      solve_ipet(b.cfg(), loops, ann, costs({0, 0, 0, 7, 0, 0}));
  EXPECT_EQ(r.wcet, 3u * 4u * 7u);
  EXPECT_EQ(r.block_counts[3], 12u);
}

TEST(Ipet, FlowFactTightensTriangularNest) {
  // Same nested shape; the paper-style triangular fact caps total inner
  // iterations at 6 (e.g. sum 3+2+1) instead of 3*4 = 12.
  CfgBuilder b(6);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 3);
  b.edge(3, 2, EdgeKind::Taken);
  b.edge(2, 4);
  b.edge(4, 1, EdgeKind::Taken);
  b.edge(1, 5);
  b.mark_exit(5);
  const LoopInfo loops = find_loops(b.cfg());
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 3);
  ann.set_loop_bound(b.header_addr(2), 4);
  ann.set_loop_total(b.header_addr(2), 6);
  const IpetResult r =
      solve_ipet(b.cfg(), loops, ann, costs({0, 0, 0, 7, 0, 0}));
  EXPECT_EQ(r.wcet, 6u * 7u);
}

TEST(Ipet, MultipleExitsPickTheWorst) {
  CfgBuilder b(4);
  b.edge(0, 1, EdgeKind::Taken);
  b.edge(0, 2);
  b.mark_exit(1);
  b.mark_exit(2);
  b.edge(1, 3); // unreachable continuation is fine
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  const IpetResult r =
      solve_ipet(b.cfg(), loops, Annotations{}, costs({1, 2, 50, 100}));
  // Worst: 0 -> 1 -> 3 (1 + 2 + 100).
  EXPECT_EQ(r.wcet, 103u);
}

// ---- exhaustive-path property -----------------------------------------------

struct RandomDag {
  CfgBuilder builder;
  std::vector<uint64_t> block_cost;
  explicit RandomDag(unsigned seed) : builder(make(seed)) {}

private:
  // Kept simple: layered DAG, every block points to 1-2 later blocks.
  static CfgBuilder make(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> n_d(4, 9);
    const int n = n_d(rng);
    CfgBuilder b(n);
    std::uniform_int_distribution<uint64_t> cost_d(1, 50);
    std::uniform_int_distribution<int> fan_d(1, 2);
    for (int i = 0; i < n - 1; ++i) {
      const int fan = fan_d(rng);
      std::uniform_int_distribution<int> succ_d(i + 1, n - 1);
      int first = succ_d(rng);
      b.edge(i, first, EdgeKind::Taken);
      if (fan == 2) {
        int second = succ_d(rng);
        if (second != first) b.edge(i, second);
      }
    }
    b.mark_exit(n - 1);
    // Any block with no successors is an exit too (dead ends of the DAG).
    for (int i = 0; i < n - 1; ++i)
      if (b.cfg().blocks[static_cast<std::size_t>(i)].out_edges.empty())
        b.mark_exit(i);
    return b;
  }
};

uint64_t longest_path(const Cfg& cfg, const std::vector<uint64_t>& cost,
                      const std::map<int, uint64_t>& edge_cost, int b) {
  const BasicBlock& blk = cfg.blocks[static_cast<std::size_t>(b)];
  uint64_t best = 0;
  for (const int e : blk.out_edges) {
    const auto it = edge_cost.find(e);
    const uint64_t ec = it == edge_cost.end() ? 0 : it->second;
    best = std::max(best,
                    ec + longest_path(cfg, cost, edge_cost,
                                      cfg.edges[static_cast<std::size_t>(e)].to));
  }
  return cost[static_cast<std::size_t>(b)] + best;
}

class IpetExhaustive : public ::testing::TestWithParam<unsigned> {};

TEST_P(IpetExhaustive, MatchesLongestPathOnDags) {
  std::mt19937 rng(GetParam() * 977u);
  RandomDag dag(GetParam());
  const Cfg& cfg = dag.builder.cfg();

  std::vector<uint64_t> cost(cfg.blocks.size());
  std::uniform_int_distribution<uint64_t> cost_d(0, 40);
  for (auto& c : cost) c = cost_d(rng);
  std::map<int, uint64_t> edge_cost;
  for (std::size_t e = 0; e < cfg.edges.size(); ++e)
    if (cfg.edges[e].kind == EdgeKind::Taken)
      edge_cost[static_cast<int>(e)] = 2;

  const LoopInfo loops = find_loops(cfg);
  ASSERT_TRUE(loops.loops.empty());
  const IpetResult r =
      solve_ipet(cfg, loops, Annotations{}, costs(cost, edge_cost));
  EXPECT_EQ(r.wcet, longest_path(cfg, cost, edge_cost, 0));
}

INSTANTIATE_TEST_SUITE_P(RandomDags, IpetExhaustive, ::testing::Range(1u, 41u));

// ---- incremental solving (skeleton + cache) --------------------------------

TEST(IpetSkeleton, ResolvesNewObjectivesExactly) {
  // One constraint matrix, many block-cost vectors: the skeleton must agree
  // with the from-scratch solve on every field, not just the bound.
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 1, EdgeKind::Taken);
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 10);

  const IpetSkeleton skel(b.cfg(), loops, ann);
  for (const auto& cycles : std::vector<std::vector<uint64_t>>{
           {2, 3, 20, 1}, {0, 0, 0, 0}, {1, 1, 1, 1}, {9, 0, 100, 7}}) {
    const BlockTimes t = costs(cycles);
    const auto fast = skel.try_solve(b.cfg(), loops, ann, t);
    const IpetResult cold = solve_ipet(b.cfg(), loops, ann, t);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(fast->wcet, cold.wcet);
    EXPECT_EQ(fast->block_counts, cold.block_counts);
  }
}

/// A seeded structured CFG: nested sequences, diamonds and counted loops
/// (a header with a body region and a taken back edge), so every loop is
/// natural and carries a bound annotation; some carry a flow-fact total.
struct RandomLoopCfg {
  CfgBuilder builder{0};
  Annotations ann;
  LoopInfo loops;

  explicit RandomLoopCfg(std::mt19937& rng) {
    std::vector<std::tuple<int, int, EdgeKind>> edges;
    std::vector<int> headers;
    int blocks = 1;
    std::function<int(int, int)> region = [&](int from, int depth) {
      switch (depth == 0 ? 0 : rng() % 5) {
        case 0: { // straight
          const int b = blocks++;
          edges.emplace_back(from, b, EdgeKind::Fallthrough);
          return b;
        }
        case 1: { // diamond
          const int l = blocks++, r = blocks++, j = blocks++;
          edges.emplace_back(from, l, EdgeKind::Taken);
          edges.emplace_back(from, r, EdgeKind::Fallthrough);
          edges.emplace_back(l, j, EdgeKind::Taken);
          edges.emplace_back(r, j, EdgeKind::Fallthrough);
          return j;
        }
        case 2:
        case 3: { // counted loop
          const int h = blocks++;
          edges.emplace_back(from, h, EdgeKind::Fallthrough);
          const int body_end = region(h, depth - 1);
          edges.emplace_back(body_end, h, EdgeKind::Taken);
          const int x = blocks++;
          edges.emplace_back(h, x, EdgeKind::Fallthrough);
          headers.push_back(h);
          return x;
        }
        default: // sequence
          return region(region(from, depth - 1), depth - 1);
      }
    };
    const int last = region(region(0, 3), 3);
    builder = CfgBuilder(blocks);
    for (const auto& [from, to, kind] : edges) builder.edge(from, to, kind);
    builder.mark_exit(last);
    for (const int h : headers) {
      ann.set_loop_bound(builder.header_addr(h), rng() % 12);
      if (rng() % 4 == 0)
        ann.set_loop_total(builder.header_addr(h), rng() % 40);
    }
    loops = find_loops(builder.cfg());
  }
};

TEST(IpetSkeleton, RandomLoopNestsMatchSolveIpetExactly) {
  // Seeded structured CFGs with nested loops, each solved for several
  // random block and edge costs: whenever the skeleton answers, it must be
  // solve_ipet's answer, block counts included — and it must answer.
  std::mt19937 rng(20261017);
  int answered = 0, solves = 0, with_loops = 0;
  for (int g = 0; g < 120; ++g) {
    const RandomLoopCfg r(rng);
    const Cfg& cfg = r.builder.cfg();
    with_loops += !r.loops.loops.empty();
    const IpetSkeleton skel(cfg, r.loops, r.ann);
    for (int k = 0; k < 5; ++k) {
      std::vector<uint64_t> cycles(cfg.blocks.size());
      for (auto& c : cycles) c = rng() % 80;
      std::map<int, uint64_t> edge_cycles;
      for (std::size_t e = 0; e < cfg.edges.size(); ++e)
        if (cfg.edges[e].kind == EdgeKind::Taken && rng() % 2 == 0)
          edge_cycles[static_cast<int>(e)] = 1 + rng() % 3;
      const BlockTimes t = costs(cycles, edge_cycles);
      const IpetResult cold = solve_ipet(cfg, r.loops, r.ann, t);
      const auto fast = skel.try_solve(cfg, r.loops, r.ann, t);
      ++solves;
      if (!fast) continue;
      ++answered;
      EXPECT_EQ(fast->wcet, cold.wcet) << "cfg " << g << " costs " << k;
      EXPECT_EQ(fast->block_counts, cold.block_counts)
          << "cfg " << g << " costs " << k;
    }
  }
  EXPECT_EQ(solves, 600);
  EXPECT_GT(with_loops, 60);
  // Flow models are integral at the relaxation: the skeleton declines only
  // when the LP optimum is fractional, which these models never are.
  EXPECT_EQ(answered, solves);
}

TEST(IpetSkeleton, DeclinesWhenLoopBoundsChange) {
  // Bounds are baked into constraint rows; a placement whose annotations
  // disagree must be declined (the caller then re-solves from scratch),
  // never silently solved against stale rows.
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 1, EdgeKind::Taken);
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 10);
  const IpetSkeleton skel(b.cfg(), loops, ann);

  Annotations changed;
  changed.set_loop_bound(b.header_addr(1), 11);
  EXPECT_FALSE(skel.try_solve(b.cfg(), loops, changed, costs({1, 1, 1, 1}))
                   .has_value());

  Annotations with_total = ann;
  with_total.set_loop_total(b.header_addr(1), 5);
  EXPECT_FALSE(skel.try_solve(b.cfg(), loops, with_total, costs({1, 1, 1, 1}))
                   .has_value());
}

TEST(IpetSkeleton, MissingBoundThrowsAtBuildLikeSolveIpet) {
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 1, EdgeKind::Taken);
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  EXPECT_THROW(IpetSkeleton(b.cfg(), loops, Annotations{}), AnnotationError);
}

TEST(IpetCache, BuildsOncePerFunctionAndFallsBackOnDecline) {
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 1, EdgeKind::Taken);
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 10);

  const IpetCache cache;
  const BlockTimes t1 = costs({2, 3, 20, 1});
  const BlockTimes t2 = costs({5, 5, 5, 5});
  const IpetResult a = cache.solve(0, b.cfg(), loops, ann, t1);
  const IpetResult c = cache.solve(0, b.cfg(), loops, ann, t2);
  EXPECT_EQ(a.wcet, solve_ipet(b.cfg(), loops, ann, t1).wcet);
  EXPECT_EQ(c.wcet, solve_ipet(b.cfg(), loops, ann, t2).wcet);
  IpetCacheStats s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.fallbacks, 0u);

  // Changed bound: served correctly through the cold fallback.
  Annotations changed;
  changed.set_loop_bound(b.header_addr(1), 3);
  const IpetResult d = cache.solve(0, b.cfg(), loops, changed, t1);
  EXPECT_EQ(d.wcet, solve_ipet(b.cfg(), loops, changed, t1).wcet);
  s = cache.stats();
  EXPECT_EQ(s.fallbacks, 1u);
}

TEST(IpetCache, MemoAnswersAnEqualObjectiveOnlyUnderTheSkeletonsBounds) {
  CfgBuilder b(4);
  b.edge(0, 1);
  b.edge(1, 2);
  b.edge(2, 1, EdgeKind::Taken);
  b.edge(1, 3);
  b.mark_exit(3);
  const LoopInfo loops = find_loops(b.cfg());
  Annotations ann;
  ann.set_loop_bound(b.header_addr(1), 10);
  const BlockTimes t1 = costs({2, 3, 20, 1}, {{2, 2}});
  const BlockTimes t2 = costs({5, 5, 5, 5}, {{2, 2}});
  const auto expect_cold = [&](const IpetResult& got, const Annotations& a,
                               const BlockTimes& t) {
    const IpetResult want = solve_ipet(b.cfg(), loops, a, t);
    EXPECT_EQ(got.wcet, want.wcet);
    EXPECT_EQ(got.block_counts, want.block_counts);
  };

  const IpetCache cache;
  expect_cold(cache.solve(0, b.cfg(), loops, ann, t1), ann, t1); // builds
  expect_cold(cache.solve(0, b.cfg(), loops, ann, t1), ann, t1); // memo
  expect_cold(cache.solve(0, b.cfg(), loops, ann, t2), ann, t2); // re-solve
  expect_cold(cache.solve(0, b.cfg(), loops, ann, t2), ann, t2); // memo
  IpetCacheStats s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.memo_hits, 2u);

  // A differing edge extra is a different objective: no memo answer.
  BlockTimes t3 = t2;
  t3.edge_cycles = {{2, 7}};
  expect_cold(cache.solve(0, b.cfg(), loops, ann, t3), ann, t3);
  EXPECT_EQ(cache.stats().memo_hits, 2u);

  // Other loop bounds with the memo's very objective: the skeleton
  // declines, so the memo never answers, and the cold solve does.
  Annotations changed;
  changed.set_loop_bound(b.header_addr(1), 3);
  const IpetResult declined = cache.solve(0, b.cfg(), loops, changed, t3);
  expect_cold(declined, changed, t3);
  EXPECT_NE(declined.wcet, solve_ipet(b.cfg(), loops, ann, t3).wcet);
  s = cache.stats();
  EXPECT_EQ(s.memo_hits, 2u);
  EXPECT_EQ(s.fallbacks, 1u);

  // The skeleton's own bounds are answered from the memo again.
  expect_cold(cache.solve(0, b.cfg(), loops, ann, t3), ann, t3);
  EXPECT_EQ(cache.stats().memo_hits, 3u);
}

} // namespace
} // namespace spmwcet::wcet
