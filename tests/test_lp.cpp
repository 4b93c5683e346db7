// Tests for the simplex LP solver and the branch-and-bound MILP layer,
// including a property-style comparison against dynamic-programming
// knapsack on randomized instances.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>

#include "lp/branch_bound.h"
#include "lp/simplex.h"

namespace spmwcet::lp {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, 1}}, Relation::LE, 4);
  m.add_constraint({{x, 1}, {y, 3}}, Relation::LE, 6);
  m.set_objective(Sense::Maximize, {{x, 3}, {y, 2}});
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
  EXPECT_NEAR(s.value(x), 4.0, 1e-6);
  EXPECT_NEAR(s.value(y), 0.0, 1e-6);
}

TEST(Simplex, Minimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> intersection (1.6, 1.2)
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, 2}}, Relation::GE, 4);
  m.add_constraint({{x, 3}, {y, 1}}, Relation::GE, 6);
  m.set_objective(Sense::Minimize, {{x, 1}, {y, 1}});
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 2.8, 1e-6);
}

TEST(Simplex, EqualityConstraints) {
  // max x + y s.t. x + y = 5, x - y = 1 -> unique point (3, 2)
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, 1}}, Relation::EQ, 5);
  m.add_constraint({{x, 1}, {y, -1}}, Relation::EQ, 1);
  m.set_objective(Sense::Maximize, {{x, 1}, {y, 1}});
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.value(x), 3.0, 1e-6);
  EXPECT_NEAR(s.value(y), 2.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const int x = m.add_var("x");
  m.add_constraint({{x, 1}}, Relation::GE, 5);
  m.add_constraint({{x, 1}}, Relation::LE, 3);
  m.set_objective(Sense::Maximize, {{x, 1}});
  EXPECT_EQ(solve_lp(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, -1}}, Relation::LE, 1);
  m.set_objective(Sense::Maximize, {{x, 1}});
  EXPECT_EQ(solve_lp(m).status, Status::Unbounded);
}

TEST(Simplex, RespectsVariableBounds) {
  Model m;
  const int x = m.add_var("x", 2.0, 7.0);
  m.set_objective(Sense::Maximize, {{x, 1}});
  const Solution smax = solve_lp(m);
  ASSERT_EQ(smax.status, Status::Optimal);
  EXPECT_NEAR(smax.value(x), 7.0, 1e-6);
  m.set_objective(Sense::Minimize, {{x, 1}});
  const Solution smin = solve_lp(m);
  ASSERT_EQ(smin.status, Status::Optimal);
  EXPECT_NEAR(smin.value(x), 2.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple constraints through the same vertex.
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, 1}}, Relation::LE, 1);
  m.add_constraint({{x, 1}}, Relation::LE, 1);
  m.add_constraint({{y, 1}}, Relation::LE, 1);
  m.add_constraint({{x, 2}, {y, 2}}, Relation::LE, 2);
  m.set_objective(Sense::Maximize, {{x, 1}, {y, 1}});
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(Milp, IntegerKnapsackSmall) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) -> 16
  Model m;
  const int a = m.add_var("a", 0, 1, true);
  const int b = m.add_var("b", 0, 1, true);
  const int c = m.add_var("c", 0, 1, true);
  m.add_constraint({{a, 1}, {b, 1}, {c, 1}}, Relation::LE, 2);
  m.set_objective(Sense::Maximize, {{a, 10}, {b, 6}, {c, 4}});
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-6);
}

TEST(Milp, RequiresBranching) {
  // LP relaxation is fractional: max x+y, 2x+2y <= 3, binary -> optimum 1.
  Model m;
  const int x = m.add_var("x", 0, 1, true);
  const int y = m.add_var("y", 0, 1, true);
  m.add_constraint({{x, 2}, {y, 2}}, Relation::LE, 3);
  m.set_objective(Sense::Maximize, {{x, 1}, {y, 1}});
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
  EXPECT_NEAR(s.value(x) + s.value(y), 1.0, 1e-6);
}

TEST(Milp, InfeasibleIntegerModel) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  const int x = m.add_var("x", 0, 1, true);
  m.add_constraint({{x, 1}}, Relation::GE, 0.4);
  m.add_constraint({{x, 1}}, Relation::LE, 0.6);
  m.set_objective(Sense::Maximize, {{x, 1}});
  EXPECT_EQ(solve_milp(m).status, Status::Infeasible);
}

// Exact 0/1 knapsack via dynamic programming for cross-checking.
int64_t knapsack_dp(const std::vector<int>& weight,
                    const std::vector<int64_t>& value, int capacity) {
  std::vector<int64_t> best(static_cast<std::size_t>(capacity) + 1, 0);
  for (std::size_t i = 0; i < weight.size(); ++i)
    for (int w = capacity; w >= weight[i]; --w)
      best[w] = std::max(best[w], best[w - weight[i]] + value[i]);
  return best.back();
}

class MilpKnapsackProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(MilpKnapsackProperty, MatchesDynamicProgramming) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> n_items(3, 12);
  std::uniform_int_distribution<int> weight_d(1, 30);
  std::uniform_int_distribution<int64_t> value_d(1, 100);

  const int n = n_items(rng);
  std::vector<int> weight(static_cast<std::size_t>(n));
  std::vector<int64_t> value(static_cast<std::size_t>(n));
  int total_w = 0;
  for (int i = 0; i < n; ++i) {
    weight[static_cast<std::size_t>(i)] = weight_d(rng);
    value[static_cast<std::size_t>(i)] = value_d(rng);
    total_w += weight[static_cast<std::size_t>(i)];
  }
  const int capacity = std::max(1, total_w / 2);

  Model m;
  std::vector<Term> cap_terms, obj_terms;
  for (int i = 0; i < n; ++i) {
    const int v = m.add_var("x" + std::to_string(i), 0, 1, true);
    cap_terms.push_back({v, static_cast<double>(weight[static_cast<std::size_t>(i)])});
    obj_terms.push_back({v, static_cast<double>(value[static_cast<std::size_t>(i)])});
  }
  m.add_constraint(cap_terms, Relation::LE, capacity);
  m.set_objective(Sense::Maximize, obj_terms);
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective,
              static_cast<double>(knapsack_dp(weight, value, capacity)), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MilpKnapsackProperty,
                         ::testing::Range(1u, 26u));

TEST(Milp, FlowLikeModelIsIntegralAtRelaxation) {
  // An IPET-shaped model: flow conservation + loop bound; the LP optimum
  // is already integral (network matrix), so MILP should agree instantly.
  Model m;
  const int entry = m.add_var("entry", 0, 1);
  const int header = m.add_var("header");
  const int body = m.add_var("body");
  const int exit = m.add_var("exit");
  m.add_constraint({{entry, 1}}, Relation::EQ, 1);
  // header executions = entry + body (back edge)
  m.add_constraint({{header, 1}, {entry, -1}, {body, -1}}, Relation::EQ, 0);
  // body <= 10 * entry (loop bound)
  m.add_constraint({{body, 1}, {entry, -10}}, Relation::LE, 0);
  // exit = entry
  m.add_constraint({{exit, 1}, {entry, -1}}, Relation::EQ, 0);
  m.set_objective(Sense::Maximize,
                  {{header, 5}, {body, 20}, {exit, 3}, {entry, 2}});
  const Solution lp = solve_lp(m);
  ASSERT_EQ(lp.status, Status::Optimal);
  EXPECT_NEAR(lp.objective, 2 + 11 * 5 + 10 * 20 + 3, 1e-6);
}

// ---- duplicate-term accumulation -------------------------------------------
// The skeleton cache expands objectives densely with `obj[var] += coef`; that
// is only sound because Model/simplex accumulate repeated Terms the same way.
// Pin the invariant so a future "last one wins" regression cannot silently
// diverge the two expansions.

TEST(Model, RepeatedObjectiveTermsAccumulate) {
  // max (1+2)x s.t. x <= 3 -> 9, not 6 (coef 2 winning) or 3 (coef 1).
  Model m;
  const int x = m.add_var("x");
  m.add_constraint({{x, 1}}, Relation::LE, 3);
  m.set_objective(Sense::Maximize, {{x, 1.0}, {x, 2.0}});
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-6);
}

TEST(Model, RepeatedConstraintTermsAccumulate) {
  // x + x <= 4 must mean 2x <= 4 (x <= 2), not x <= 4.
  Model m;
  const int x = m.add_var("x");
  m.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::LE, 4);
  m.set_objective(Sense::Maximize, {{x, 1}});
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.value(x), 2.0, 1e-6);
}

// ---- warm start ------------------------------------------------------------

TEST(WarmStart, OptimalBasisReachesSameObjective) {
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, 1}}, Relation::LE, 4);
  m.add_constraint({{x, 1}, {y, 3}}, Relation::LE, 6);
  m.set_objective(Sense::Maximize, {{x, 3}, {y, 2}});
  const Solution cold = solve_lp(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());
  EXPECT_FALSE(cold.warm_started);

  const Solution warm = solve_lp(m, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_NEAR(warm.value(x), cold.value(x), 1e-9);
  EXPECT_NEAR(warm.value(y), cold.value(y), 1e-9);
}

TEST(WarmStart, BasisSurvivesObjectiveChange) {
  // Re-solving the same constraint matrix under a new objective is the
  // incremental-IPET pattern; the previous optimal basis is a valid start.
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, 1}}, Relation::LE, 4);
  m.add_constraint({{x, 1}, {y, 3}}, Relation::LE, 6);
  m.set_objective(Sense::Maximize, {{x, 3}, {y, 2}});
  const Solution first = solve_lp(m);
  ASSERT_EQ(first.status, Status::Optimal);

  m.set_objective(Sense::Maximize, {{x, 1}, {y, 5}});
  const Solution warm = solve_lp(m, &first.basis);
  const Solution cold = solve_lp(m);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

TEST(WarmStart, InvalidBasisFallsBackCold) {
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  m.add_constraint({{x, 1}, {y, 1}}, Relation::LE, 4);
  m.add_constraint({{x, 2}, {y, 1}}, Relation::LE, 6);
  m.set_objective(Sense::Maximize, {{x, 3}, {y, 2}});
  const Solution cold = solve_lp(m);
  ASSERT_EQ(cold.status, Status::Optimal);

  // Wrong size, out-of-range column, repeated column: each must quietly
  // fall back to the two-phase cold solve, never crash or mis-solve.
  const Basis wrong_size = {0, 1, 2};
  const Basis out_of_range = {99, 0};
  const Basis repeated = {0, 0};
  for (const Basis* bad : {&wrong_size, &out_of_range, &repeated}) {
    const Solution s = solve_lp(m, bad);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_FALSE(s.warm_started);
    EXPECT_NEAR(s.objective, cold.objective, 1e-9);
  }
  // Null/empty warm request = cold solve.
  const Solution none = solve_lp(m, nullptr);
  EXPECT_FALSE(none.warm_started);
  EXPECT_NEAR(none.objective, cold.objective, 1e-9);
}

TEST(WarmStart, MilpRootAcceptsWarmBasisAndReturnsIt) {
  Model m;
  const int a = m.add_var("a", 0, 1, true);
  const int b = m.add_var("b", 0, 1, true);
  const int c = m.add_var("c", 0, 1, true);
  m.add_constraint({{a, 1}, {b, 1}, {c, 1}}, Relation::LE, 2);
  m.set_objective(Sense::Maximize, {{a, 10}, {b, 6}, {c, 4}});
  const Solution first = solve_milp(m);
  ASSERT_EQ(first.status, Status::Optimal);
  ASSERT_FALSE(first.basis.empty());

  MilpOptions opts;
  opts.warm_start = &first.basis;
  const Solution again = solve_milp(m, opts);
  ASSERT_EQ(again.status, Status::Optimal);
  EXPECT_TRUE(again.warm_started);
  EXPECT_NEAR(again.objective, first.objective, 1e-9);
}

// ---- PreparedLp ------------------------------------------------------------

TEST(PreparedLp, MatchesColdSolveBitExactly) {
  // The skeleton contract: a prepared phase-2-only solve must reproduce the
  // cold solver's arithmetic exactly, not approximately.
  Model m;
  const int x = m.add_var("x");
  const int y = m.add_var("y");
  const int z = m.add_var("z", 1.0, 5.0);
  m.add_constraint({{x, 1}, {y, 1}, {z, 1}}, Relation::LE, 10);
  m.add_constraint({{x, 1}, {y, 3}}, Relation::LE, 6);
  m.add_constraint({{x, 1}, {z, -1}}, Relation::GE, 0);
  m.set_objective(Sense::Maximize, {{x, 3}, {y, 2}, {z, 1}});

  const PreparedLp prepared(m);
  ASSERT_EQ(prepared.num_vars(), m.num_vars());
  for (const auto& obj : std::vector<std::vector<double>>{
           {3, 2, 1}, {1, 5, 0}, {0, 0, -2}, {7, 7, 7}}) {
    Model fresh = m;
    std::vector<Term> terms;
    for (std::size_t j = 0; j < obj.size(); ++j)
      terms.push_back({static_cast<int>(j), obj[j]});
    fresh.set_objective(Sense::Maximize, terms);
    const Solution cold = solve_lp(fresh);
    const Solution fast = prepared.solve(Sense::Maximize, obj);
    ASSERT_EQ(fast.status, cold.status);
    EXPECT_EQ(fast.objective, cold.objective); // bit-exact, not NEAR
    ASSERT_EQ(fast.values.size(), cold.values.size());
    for (std::size_t j = 0; j < cold.values.size(); ++j)
      EXPECT_EQ(fast.values[j], cold.values[j]);
  }
}

TEST(PreparedLp, ReportsInfeasibilityAndUnboundedness) {
  Model inf;
  const int x = inf.add_var("x");
  inf.add_constraint({{x, 1}}, Relation::GE, 5);
  inf.add_constraint({{x, 1}}, Relation::LE, 3);
  inf.set_objective(Sense::Maximize, {{x, 1}});
  const PreparedLp pinf(inf);
  EXPECT_EQ(pinf.solve(Sense::Maximize, {1.0}).status, Status::Infeasible);

  Model unb;
  const int u = unb.add_var("u");
  const int v = unb.add_var("v");
  unb.add_constraint({{u, 1}, {v, -1}}, Relation::LE, 1);
  unb.set_objective(Sense::Maximize, {{u, 1}});
  const PreparedLp punb(unb);
  EXPECT_EQ(punb.solve(Sense::Maximize, {1.0, 0.0}).status, Status::Unbounded);
  // The same prepared tableau under a bounded objective is fine.
  EXPECT_EQ(punb.solve(Sense::Maximize, {0.0, 0.0}).status, Status::Optimal);
}

// ---- PreparedLp oracle property ---------------------------------------------

/// A seeded IPET-shaped model: flow conservation over a forward DAG of
/// `nodes` blocks with loop back edges, each back edge bounded by a multiple
/// of a forward edge into its header (so every cycle is bounded), optional
/// absolute caps, and redundant equality rows — a duplicated conservation
/// row and the sum of two — which phase one cannot pivot its artificials
/// out of.
struct FlowModel {
  Model model;
  std::size_t width = 0; ///< structural + slack columns of the standard form
};

FlowModel random_flow_model(std::mt19937& rng) {
  FlowModel out;
  Model& m = out.model;
  const int nodes = 4 + static_cast<int>(rng() % 9);
  std::vector<std::vector<int>> in(nodes), out_edges(nodes);
  std::vector<int> first_in(nodes, -1); // a forward edge into each node
  const auto edge = [&](int from, int to) {
    const int v = m.add_var("e", 0, std::numeric_limits<double>::infinity(),
                            true);
    out_edges[static_cast<std::size_t>(from)].push_back(v);
    in[static_cast<std::size_t>(to)].push_back(v);
    if (from < to && first_in[static_cast<std::size_t>(to)] < 0)
      first_in[static_cast<std::size_t>(to)] = v;
    return v;
  };
  const int entry = m.add_var("entry", 1, 1, true);
  in[0].push_back(entry);
  first_in[0] = entry;
  for (int i = 0; i + 1 < nodes; ++i) {
    const auto later = [&] {
      return i + 1 + static_cast<int>(rng() % (nodes - 1 - i));
    };
    edge(i, later());
    if (rng() % 2 != 0) edge(i, later());
  }
  // Exit edges out of every dead end (and some other blocks).
  for (int i = 0; i < nodes; ++i)
    if (out_edges[static_cast<std::size_t>(i)].empty() || rng() % 5 == 0)
      out_edges[static_cast<std::size_t>(i)].push_back(m.add_var(
          "x", 0, std::numeric_limits<double>::infinity(), true));
  // Back edges j -> h (h <= j), bounded by k times a forward edge into h.
  std::vector<std::pair<int, int>> bounds; // (back edge, bounding edge)
  const int loops = static_cast<int>(rng() % 4);
  for (int l = 0; l < loops; ++l) {
    const int h = static_cast<int>(rng() % nodes);
    const int j = h + static_cast<int>(rng() % (nodes - h));
    if (first_in[static_cast<std::size_t>(h)] < 0) continue;
    const int back = edge(j, h);
    bounds.emplace_back(back, first_in[static_cast<std::size_t>(h)]);
  }

  std::vector<std::vector<Term>> flow;
  for (int i = 0; i < nodes; ++i) {
    std::vector<Term> terms;
    for (const int v : in[static_cast<std::size_t>(i)]) terms.push_back({v, 1});
    for (const int v : out_edges[static_cast<std::size_t>(i)])
      terms.push_back({v, -1});
    m.add_constraint(terms, Relation::EQ, 0);
    flow.push_back(std::move(terms));
  }
  for (const auto& [back, by] : bounds) {
    m.add_constraint({{back, 1}, {by, -static_cast<double>(rng() % 11)}},
                     Relation::LE, 0);
    if (rng() % 3 == 0)
      m.add_constraint({{back, 1}}, Relation::LE,
                       static_cast<double>(rng() % 30));
  }
  // Redundant equalities, in two models of three.
  if (rng() % 3 != 0) {
    m.add_constraint(flow[rng() % flow.size()], Relation::EQ, 0);
    std::vector<Term> sum = flow[rng() % flow.size()];
    const auto& other = flow[rng() % flow.size()];
    sum.insert(sum.end(), other.begin(), other.end());
    m.add_constraint(sum, Relation::EQ, 0);
  }

  std::size_t inequalities = 0, upper_bounds = 0;
  for (const Constraint& c : m.constraints())
    inequalities += c.rel != Relation::EQ;
  for (const Variable& v : m.vars())
    upper_bounds += std::isfinite(v.upper);
  out.width = m.num_vars() + inequalities + upper_bounds;
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(PreparedLpOracle, RandomFlowModelsMatchColdSolveBitForBit) {
  // The compact prepared tableau drops the artificial columns after phase
  // one; every prepared solve must still be the cold solve, bit for bit —
  // including models whose redundant rows keep an artificial basic.
  std::mt19937 rng(20261017);
  int solves = 0, optimal = 0, artificial_basic = 0;
  for (int model_i = 0; model_i < 150; ++model_i) {
    const FlowModel fm = random_flow_model(rng);
    const PreparedLp prepared(fm.model);
    for (int k = 0; k < 6; ++k) {
      std::vector<double> obj(fm.model.num_vars(), 0.0);
      std::vector<Term> terms;
      for (std::size_t j = 0; j < obj.size(); ++j) {
        if (rng() % 4 == 0) continue;
        obj[j] = static_cast<double>(rng() % 60);
        terms.push_back({static_cast<int>(j), obj[j]});
      }
      Model fresh = fm.model;
      fresh.set_objective(Sense::Maximize, terms);
      const Solution cold = solve_lp(fresh);
      const Solution fast = prepared.solve(Sense::Maximize, obj);
      const std::string what = "model " + std::to_string(model_i) +
                               " objective " + std::to_string(k);
      ++solves;
      ASSERT_EQ(fast.status, cold.status) << what;
      EXPECT_TRUE(same_bits(fast.objective, cold.objective)) << what;
      ASSERT_EQ(fast.values.size(), cold.values.size()) << what;
      for (std::size_t j = 0; j < cold.values.size(); ++j)
        EXPECT_TRUE(same_bits(fast.values[j], cold.values[j]))
            << what << " var " << j;
      EXPECT_EQ(fast.basis, cold.basis) << what;
      if (cold.status != Status::Optimal) continue;
      ++optimal;
      for (const int c : cold.basis)
        if (c >= 0 && static_cast<std::size_t>(c) >= fm.width) {
          ++artificial_basic;
          break;
        }
    }
  }
  EXPECT_EQ(solves, 900);
  // Every model is bounded and feasible by construction, and both the
  // edge case the compaction must survive and the plain case occur.
  EXPECT_EQ(optimal, solves);
  EXPECT_GT(artificial_basic, 0);
  EXPECT_LT(artificial_basic, optimal);
}

} // namespace
} // namespace spmwcet::lp
