// LP-solver layer tests: the sparse revised simplex (lp/revised_simplex),
// with every optimum checked by its duality certificate
// (lp::certify_optimality), warm starts, the transportation specialization
// of the strategy LP, and basis threading through the iterative
// alternation. See tests/README.md "LP solver".
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/iterative.hpp"
#include "core/manytoone.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp_certified_solve.hpp"
#include "net/latency_matrix.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/tree.hpp"

namespace qp {
namespace {

using lp::expect_certified;
using lp::LpProblem;
using lp::OptimalityCertificate;
using lp::RevisedSimplexSolver;
using lp::RowSense;
using lp::SimplexOptions;
using lp::solve_certified;
using lp::SolveResult;
using lp::SolveStatus;

/// |a - b| <= eps * max(1, |b|): the repo-wide parity comparison.
void expect_parity(double actual, double expected, double eps = 1e-9) {
  EXPECT_LE(std::abs(actual - expected), eps * std::max(1.0, std::abs(expected)))
      << "actual=" << actual << " expected=" << expected;
}

TEST(RevisedSimplex, TextbookOptimum) {
  LpProblem p;
  const std::size_t x = p.add_variable(-3.0);
  const std::size_t y = p.add_variable(-5.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 4.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 12.0), y, 2.0);
  const std::size_t r3 = p.add_row(RowSense::LessEqual, 18.0);
  p.add_coefficient(r3, x, 3.0);
  p.add_coefficient(r3, y, 2.0);

  const SolveResult s = solve_certified(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.values[y], 6.0, 1e-9);
  EXPECT_NEAR(p.max_violation(s.values), 0.0, 1e-9);
  ASSERT_EQ(s.basis.basic.size(), 3u);
  // Strong duality.
  const double dual = 4.0 * s.duals[0] + 12.0 * s.duals[1] + 18.0 * s.duals[2];
  EXPECT_NEAR(dual, s.objective, 1e-8);
}

TEST(RevisedSimplex, EqualityAndGreaterRows) {
  // min x + 2y  s.t.  x + y = 10, x >= 3, y >= 2  ->  x = 8, y = 2.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(2.0);
  const std::size_t eq = p.add_row(RowSense::Equal, 10.0);
  p.add_coefficient(eq, x, 1.0);
  p.add_coefficient(eq, y, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 3.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 2.0), y, 1.0);

  const SolveResult s = solve_certified(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-9);
  EXPECT_NEAR(s.values[x], 8.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
}

TEST(RevisedSimplex, DetectsInfeasible) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 1.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 2.0), x, 1.0);
  EXPECT_EQ(solve_certified(p).status, SolveStatus::Infeasible);
}

TEST(RevisedSimplex, DetectsUnbounded) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(1.0);
  const std::size_t row = p.add_row(RowSense::LessEqual, 5.0);
  p.add_coefficient(row, y, 1.0);
  (void)x;
  EXPECT_EQ(solve_certified(p).status, SolveStatus::Unbounded);
}

TEST(RevisedSimplex, NegativeRhsNormalization) {
  // min x  s.t.  -x <= -5  (i.e. x >= 5).
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, -5.0), x, -1.0);
  const SolveResult s = solve_certified(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.values[x], 5.0, 1e-9);
}

TEST(RevisedSimplex, NoConstraints) {
  LpProblem p;
  (void)p.add_variable(1.0);
  EXPECT_EQ(solve_certified(p).status, SolveStatus::Optimal);
  LpProblem q;
  (void)q.add_variable(-1.0);
  EXPECT_EQ(solve_certified(q).status, SolveStatus::Unbounded);
}

TEST(RevisedSimplex, DegenerateProblemTerminates) {
  // Multiple rows active at the origin (a cycling guard).
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(-1.0);
  for (int i = 0; i < 4; ++i) {
    const std::size_t row = p.add_row(RowSense::LessEqual, 0.0);
    p.add_coefficient(row, x, 1.0 + i);
    p.add_coefficient(row, y, -1.0);
  }
  const std::size_t cap = p.add_row(RowSense::LessEqual, 10.0);
  p.add_coefficient(cap, x, 1.0);
  p.add_coefficient(cap, y, 1.0);
  const SolveResult s = solve_certified(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(p.max_violation(s.values), 0.0, 1e-8);
}

/// Random mixed-sense LP, feasible by construction: pick an interior point
/// x0 >= 0, set each row's rhs from its activity at x0 (with slack for the
/// inequality senses), and bound the feasible region so negative costs
/// cannot ride a ray to infinity.
LpProblem random_mixed_lp(common::Rng& rng, std::size_t vars, std::size_t rows) {
  LpProblem p;
  std::vector<double> x0(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    x0[j] = rng.uniform(0.0, 2.0);
    (void)p.add_variable(rng.uniform(-2.0, 3.0));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> a(vars);
    double activity = 0.0;
    for (std::size_t j = 0; j < vars; ++j) {
      a[j] = rng.uniform(-1.0, 2.0);
      activity += a[j] * x0[j];
    }
    const std::size_t kind = rng.below(3);
    std::size_t row = 0;
    if (kind == 0) {
      row = p.add_row(RowSense::LessEqual, activity + rng.uniform(0.1, 2.0));
    } else if (kind == 1) {
      row = p.add_row(RowSense::GreaterEqual, activity - rng.uniform(0.1, 2.0));
    } else {
      row = p.add_row(RowSense::Equal, activity);
    }
    for (std::size_t j = 0; j < vars; ++j) p.add_coefficient(row, j, a[j]);
  }
  // Box the region: sum x <= sum x0 + margin keeps every cost bounded.
  double total = 0.0;
  for (double v : x0) total += v;
  const std::size_t box = p.add_row(RowSense::LessEqual, total + 10.0);
  for (std::size_t j = 0; j < vars; ++j) p.add_coefficient(box, j, 1.0);
  return p;
}

class RandomLpParity : public ::testing::TestWithParam<std::uint64_t> {};

// The name predates the duality certificate, which is what this checks.
TEST_P(RandomLpParity, RevisedMatchesDense) {
  common::Rng rng{GetParam()};
  const std::size_t vars = 4 + rng.below(8);
  const std::size_t rows = 2 + rng.below(6);
  LpProblem p = random_mixed_lp(rng, vars, rows);

  const SolveResult revised = RevisedSimplexSolver{}.solve(p);
  ASSERT_EQ(revised.status, SolveStatus::Optimal);
  expect_certified(p, revised.values, revised.duals);
  EXPECT_LE(p.max_violation(revised.values), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpParity,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                           15, 16, 17, 18, 19, 20));

TEST(RevisedSimplex, WarmRestartOfSameProblemTakesNoPivots) {
  common::Rng rng{42};
  LpProblem p = random_mixed_lp(rng, 10, 6);
  LpProblem q = p;
  const SolveResult cold = solve_certified(p);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);

  SimplexOptions warm_options;
  warm_options.initial_basis = cold.basis;
  const SolveResult warm = solve_certified(q, warm_options);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  expect_parity(warm.objective, cold.objective);
  // Re-solving from the optimal basis is one optimality-confirming pass.
  EXPECT_LE(warm.iterations, 2u);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(RevisedSimplex, WarmStartEqualsColdStartAfterPerturbation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng rng{seed};
    LpProblem base = random_mixed_lp(rng, 12, 8);
    LpProblem warm_copy = base;
    const SolveResult cold_base = solve_certified(base);
    ASSERT_EQ(cold_base.status, SolveStatus::Optimal);

    // Same constraint matrix, perturbed objective: rebuild with nudged costs.
    LpProblem perturbed;
    for (std::size_t j = 0; j < warm_copy.variable_count(); ++j) {
      (void)perturbed.add_variable(warm_copy.objective_coefficient(j) +
                                   rng.uniform(-0.05, 0.05));
    }
    for (std::size_t i = 0; i < warm_copy.row_count(); ++i) {
      (void)perturbed.add_row(warm_copy.row_sense(i),
                              warm_copy.rhs(i) + rng.uniform(-0.01, 0.01));
    }
    for (std::size_t j = 0; j < warm_copy.variable_count(); ++j) {
      for (const lp::ColumnEntry& entry : warm_copy.column(j)) {
        perturbed.add_coefficient(entry.row, j, entry.value);
      }
    }
    LpProblem perturbed_cold = perturbed;

    SimplexOptions warm_options;
    warm_options.initial_basis = cold_base.basis;
    const SolveResult warm = solve_certified(perturbed, warm_options);
    const SolveResult cold = solve_certified(perturbed_cold);
    if (cold.status != SolveStatus::Optimal) continue;  // rhs nudge may cut x0.
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "seed " << seed;
    expect_parity(warm.objective, cold.objective);
    EXPECT_LE(warm.iterations, cold.iterations) << "seed " << seed;
  }
}

TEST(RevisedSimplex, GarbageBasisFallsBackToColdStart) {
  common::Rng rng{7};
  LpProblem p = random_mixed_lp(rng, 8, 5);
  LpProblem q = p;
  const SolveResult reference = solve_certified(p);
  ASSERT_EQ(reference.status, SolveStatus::Optimal);

  SimplexOptions options;
  // Wrong-shaped, duplicated, and out-of-range entries all at once.
  options.initial_basis.basic.assign(q.row_count(), 123456789u);
  const SolveResult patched = solve_certified(q, options);
  ASSERT_EQ(patched.status, SolveStatus::Optimal);
  expect_parity(patched.objective, reference.objective);
}

TEST(RevisedSimplex, IterationLimitReported) {
  // min -x (- y) s.t. x <= 1 (, y <= 1): one and two improving pivots. A
  // budget of one iteration stops both after their first pivot.
  for (std::size_t vars = 1; vars <= 2; ++vars) {
    LpProblem p;
    for (std::size_t j = 0; j < vars; ++j) {
      p.add_coefficient(p.add_row(RowSense::LessEqual, 1.0), p.add_variable(-1.0), 1.0);
    }
    LpProblem q = p;
    SimplexOptions options;
    options.max_iterations = 1;
    const SolveResult limited = solve_certified(p, options);
    EXPECT_EQ(limited.status, SolveStatus::IterationLimit) << vars << " rows";
    EXPECT_EQ(limited.iterations, 1u) << vars << " rows";
    const SolveResult full = solve_certified(q);
    ASSERT_EQ(full.status, SolveStatus::Optimal);
    EXPECT_NEAR(full.objective, -static_cast<double>(vars), 1e-12);
  }
}

TEST(RevisedSimplex, MediumScaleStrategyShapedLp) {
  // The access-strategy LP's structure: capacity rows + distribution rows.
  common::Rng rng{777};
  const std::size_t clients = 40, options = 25;
  LpProblem p;
  for (std::size_t v = 0; v < clients; ++v) {
    for (std::size_t i = 0; i < options; ++i) {
      (void)p.add_variable(rng.uniform(1.0, 100.0));
    }
  }
  for (std::size_t i = 0; i < options; ++i) {
    const std::size_t row = p.add_row(RowSense::LessEqual, 0.1);
    for (std::size_t v = 0; v < clients; ++v) {
      p.add_coefficient(row, v * options + i, 1.0 / clients);
    }
  }
  for (std::size_t v = 0; v < clients; ++v) {
    const std::size_t row = p.add_row(RowSense::Equal, 1.0);
    for (std::size_t i = 0; i < options; ++i) p.add_coefficient(row, v * options + i, 1.0);
  }
  const SolveResult revised = RevisedSimplexSolver{}.solve(p);
  ASSERT_EQ(revised.status, SolveStatus::Optimal);
  expect_certified(p, revised.values, revised.duals);
  EXPECT_LE(p.max_violation(revised.values), 1e-6);
}

// ---------------------------------------------------------------------------
// Strategy level: LP (4.3)-(4.6) through the engine router in
// optimize_access_strategy. Each result is certified against an independent
// build of the LP: its strategy, read as a point of that LP, must be
// feasible and close a zero duality gap with the LP's certified duals.
// ---------------------------------------------------------------------------

using core::Placement;
using core::StrategyLpOptions;
using core::StrategyLpResult;
using core::StrategyLpSolver;

Placement identity_placement(std::size_t universe) {
  Placement placement;
  placement.site_of.resize(universe);
  for (std::size_t e = 0; e < universe; ++e) placement.site_of[e] = e;
  return placement;
}

/// Capacities a shade above the balanced strategy's loads: feasible by
/// construction (the balanced strategy satisfies them) and binding for the
/// delay optimizer, which wants to concentrate weight on close quorums.
std::vector<double> binding_caps(const quorum::QuorumSystem& system,
                                 const Placement& placement, std::size_t site_count,
                                 double slack = 1.02) {
  const std::vector<double> balanced =
      core::site_loads_balanced(system, placement, site_count);
  std::vector<double> caps(site_count, 1.0);
  for (std::size_t w = 0; w < site_count; ++w) {
    if (balanced[w] > 0.0) caps[w] = slack * balanced[w];
  }
  return caps;
}

/// LP (4.3)-(4.6) built here from the paper's definitions, apart from
/// core/strategy: variable v * m + i is p_v(Q_i) with cost
/// max_{u in Q_i} d(v, f(u)) / |V|; each support site w has the row
/// sum_v sum_i p_v(Q_i) |{u in Q_i : f(u) = w}| / |V| <= cap(w); each client
/// has sum_i p_v(Q_i) = 1.
LpProblem strategy_lp(const net::LatencyMatrix& matrix,
                      std::span<const quorum::Quorum> quorums, const Placement& placement,
                      std::span<const double> caps) {
  const std::size_t n = matrix.size();
  const std::size_t m = quorums.size();
  const double share = 1.0 / static_cast<double>(n);
  LpProblem p;
  for (std::size_t v = 0; v < n; ++v) {
    for (const quorum::Quorum& quorum : quorums) {
      double delay = 0.0;
      for (std::size_t u : quorum) delay = std::max(delay, matrix.rtt(v, placement.site_of[u]));
      (void)p.add_variable(delay * share);
    }
  }
  std::vector<std::size_t> cap_row(n, 0);
  for (std::size_t w : placement.support_set()) {
    cap_row[w] = p.add_row(RowSense::LessEqual, caps[w]);
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t row = p.add_row(RowSense::Equal, 1.0);
    for (std::size_t i = 0; i < m; ++i) {
      p.add_coefficient(row, v * m + i, 1.0);
      for (std::size_t u : quorums[i]) {
        p.add_coefficient(cap_row[placement.site_of[u]], v * m + i, share);
      }
    }
  }
  return p;
}

/// Solves a copy of `problem` and expects a certified optimum.
SolveResult certified_optimum(LpProblem problem) {
  SolveResult s = solve_certified(problem);
  EXPECT_EQ(s.status, SolveStatus::Optimal);
  return s;
}

/// Certifies an optimize_access_strategy result: its per-client strategy is
/// feasible in strategy_lp and, with that LP's certified duals, has a zero
/// duality gap; its reported delay is the certified objective.
void expect_certified_strategy(const net::LatencyMatrix& matrix, const Placement& placement,
                               std::span<const double> caps,
                               const StrategyLpResult& result) {
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  const LpProblem p = strategy_lp(matrix, result.strategy.quorums, placement, caps);
  const SolveResult optimum = certified_optimum(p);
  std::vector<double> x;
  for (const std::vector<double>& row : result.strategy.probability) {
    x.insert(x.end(), row.begin(), row.end());
  }
  expect_certified(p, x, optimum.duals);
  expect_parity(result.avg_network_delay, optimum.objective);
}

StrategyLpResult solve_strategy(const net::LatencyMatrix& matrix,
                                const quorum::QuorumSystem& system,
                                const Placement& placement,
                                std::span<const double> caps, StrategyLpSolver solver,
                                lp::Basis warm = {}) {
  StrategyLpOptions options;
  options.solver = solver;
  options.simplex.initial_basis = std::move(warm);
  return core::optimize_access_strategy(matrix, system, placement, caps, options);
}

class StrategyLpParity : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<quorum::QuorumSystem> make_system(const std::string& name) {
    if (name == "grid") return std::make_unique<quorum::GridQuorum>(3);
    if (name == "majority") return std::make_unique<quorum::MajorityQuorum>(9, 5);
    if (name == "fpp") return std::make_unique<quorum::FppQuorum>(2);
    return std::make_unique<quorum::TreeQuorum>(2);
  }
};

// The name predates the certificate (see RandomLpParity).
TEST_P(StrategyLpParity, RevisedMatchesDenseWithAndWithoutCapacityRows) {
  const auto system = make_system(GetParam());
  const net::LatencyMatrix matrix = net::small_synth(20, 901);
  const Placement placement = identity_placement(system->universe_size());

  const std::vector<double> loose(matrix.size(), 1e9);
  const std::vector<double> tight = binding_caps(*system, placement, matrix.size());
  for (const std::vector<double>* caps : {&loose, &tight}) {
    const StrategyLpResult revised =
        solve_strategy(matrix, *system, placement, *caps, StrategyLpSolver::Revised);
    EXPECT_EQ(revised.solver_used, StrategyLpSolver::Revised);
    expect_certified_strategy(matrix, placement, *caps, revised);
    revised.strategy.validate(matrix.size(), system->universe_size());
    EXPECT_FALSE(revised.basis.empty());
    // Uncapacitated, the min-cost-flow engine solves the same LP apart from
    // the simplex; with binding caps it hands over to Revised.
    const StrategyLpResult flow =
        solve_strategy(matrix, *system, placement, *caps, StrategyLpSolver::Transportation);
    EXPECT_EQ(flow.solver_used, caps == &loose ? StrategyLpSolver::Transportation
                                               : StrategyLpSolver::Revised);
    expect_certified_strategy(matrix, placement, *caps, flow);
  }
}

INSTANTIATE_TEST_SUITE_P(QuorumFamilies, StrategyLpParity,
                         ::testing::Values("grid", "majority", "fpp", "tree"),
                         [](const auto& info) { return std::string{info.param}; });

TEST(StrategyLp, TransportationMatchesGeneralEnginesUncapacitated) {
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(24, 907);
  const Placement placement = identity_placement(grid.universe_size());
  const std::vector<double> loose(matrix.size(), 1e9);

  const StrategyLpResult automatic =
      solve_strategy(matrix, grid, placement, loose, StrategyLpSolver::Auto);
  ASSERT_EQ(automatic.status, SolveStatus::Optimal);
  // No capacity row can bind -> Auto routes through the min-cost-flow
  // transportation specialization, pivot-free.
  EXPECT_EQ(automatic.solver_used, StrategyLpSolver::Transportation);
  EXPECT_EQ(automatic.lp_iterations, 0u);

  const StrategyLpResult revised =
      solve_strategy(matrix, grid, placement, loose, StrategyLpSolver::Revised);
  expect_certified_strategy(matrix, placement, loose, automatic);
  expect_certified_strategy(matrix, placement, loose, revised);
  expect_parity(automatic.avg_network_delay, revised.avg_network_delay);
  automatic.strategy.validate(matrix.size(), grid.universe_size());
}

TEST(StrategyLp, ExplicitTransportationDowngradesWhenCapsCanBind) {
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(20, 911);
  const Placement placement = identity_placement(grid.universe_size());
  const std::vector<double> tight = binding_caps(grid, placement, matrix.size());

  const StrategyLpResult lp =
      solve_strategy(matrix, grid, placement, tight, StrategyLpSolver::Transportation);
  ASSERT_EQ(lp.status, SolveStatus::Optimal);
  EXPECT_EQ(lp.solver_used, StrategyLpSolver::Revised);
}

TEST(StrategyLp, WarmStartReachesColdOptimum) {
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(24, 919);
  const Placement placement = identity_placement(grid.universe_size());

  const std::vector<double> first = binding_caps(grid, placement, matrix.size(), 1.05);
  const std::vector<double> second = binding_caps(grid, placement, matrix.size(), 1.02);
  const StrategyLpResult seed =
      solve_strategy(matrix, grid, placement, first, StrategyLpSolver::Revised);
  ASSERT_EQ(seed.status, SolveStatus::Optimal);
  ASSERT_FALSE(seed.basis.empty());

  const StrategyLpResult cold =
      solve_strategy(matrix, grid, placement, second, StrategyLpSolver::Revised);
  const StrategyLpResult warm = solve_strategy(matrix, grid, placement, second,
                                               StrategyLpSolver::Revised, seed.basis);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  expect_parity(warm.avg_network_delay, cold.avg_network_delay);
  // Re-solving a neighbouring rhs from the previous optimal basis must not
  // cost more pivots than starting over.
  EXPECT_LE(warm.lp_iterations, cold.lp_iterations);
}

TEST(StrategyLp, IterativeWarmStartMatchesColdRun) {
  const net::LatencyMatrix matrix = net::small_synth(16, 23);
  const quorum::GridQuorum grid{2};
  const std::vector<double> caps(matrix.size(), 0.8);

  core::IterativeOptions warm_options;
  warm_options.anchor_candidates = {0, 1, 2, 3};
  core::IterativeOptions cold_options = warm_options;
  cold_options.warm_start = false;

  const core::IterativeResult warm =
      core::iterative_placement(matrix, grid, caps, /*alpha=*/5.0, warm_options);
  const core::IterativeResult cold =
      core::iterative_placement(matrix, grid, caps, /*alpha=*/5.0, cold_options);
  // Warm starts change pivot counts, never results: identical placements,
  // strategies, and responses.
  EXPECT_EQ(warm.placement.site_of, cold.placement.site_of);
  expect_parity(warm.avg_response, cold.avg_response);
  ASSERT_EQ(warm.history.size(), cold.history.size());
  for (std::size_t i = 0; i < warm.history.size(); ++i) {
    expect_parity(warm.history[i].response_after_strategy,
                  cold.history[i].response_after_strategy);
    EXPECT_FALSE(cold.history[i].lp_warm_started);
  }
}

// The name predates the certificate (see RandomLpParity).
TEST(StrategyLp, IterativeDenseAndRevisedEnginesAgree) {
  // The alternation end-to-end on the Revised engine. Iteration 1 starts
  // from the uniform strategy, so its placement and its phase-2 LP can be
  // rebuilt here: the phase-2 value it reports must be the certified
  // optimum of that LP.
  const net::LatencyMatrix matrix = net::small_synth(16, 29);
  const quorum::GridQuorum grid{2};
  const std::vector<double> caps(matrix.size(), 0.8);

  core::IterativeOptions options;
  options.anchor_candidates = {0, 1, 2, 3};
  options.warm_start = false;
  options.strategy.solver = StrategyLpSolver::Revised;
  const core::IterativeResult revised =
      core::iterative_placement(matrix, grid, caps, /*alpha=*/5.0, options);
  ASSERT_FALSE(revised.history.empty());

  // Phase 1 of iteration 1: many-to-one placement under the uniform
  // strategy; phase 2 pins each site's cap to the load that strategy puts
  // on it, with the same slack iterative_placement adds.
  core::ExplicitStrategy uniform;
  uniform.quorums = grid.enumerate_quorums(options.strategy.quorum_limit);
  const std::vector<double> p0(uniform.quorums.size(),
                               1.0 / static_cast<double>(uniform.quorums.size()));
  uniform.probability.assign(matrix.size(), p0);
  const core::ManyToOneSearchResult search = core::best_many_to_one_placement(
      matrix, grid, p0, caps, options.anchor_candidates, options.placement);
  ASSERT_EQ(search.best.status, SolveStatus::Optimal);
  std::vector<double> load_caps =
      core::site_loads_explicit(uniform, search.best.placement, matrix.size());
  for (double& cap : load_caps) cap = cap * (1.0 + 1e-9) + 1e-12;

  const SolveResult optimum = certified_optimum(
      strategy_lp(matrix, uniform.quorums, search.best.placement, load_caps));
  expect_parity(revised.history[0].network_after_strategy, optimum.objective);
}

}  // namespace
}  // namespace qp
