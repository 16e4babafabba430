// Parity suites for the sparse candidate-search stack: the kd-tree KnnIndex
// against the brute-force reference, ClientCandidateIndex candidate
// evaluation against Objective::evaluate of the moved placement (including
// after move sequences, where the evaluator repairs its charge/overflow
// state incrementally), and — the acceptance pin — sparse local search
// reproducing the dense exhaustive scan's local optimum on every n <= 500
// config.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/client_index.hpp"
#include "core/delta_eval.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/embedding.hpp"
#include "net/knn_index.hpp"
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "sim/scenario.hpp"
#include "tie_heavy_matrix.hpp"

namespace qp::core {
namespace {

using net::tie_heavy_matrix;

// ------------------------------------------------------------- KnnIndex

TEST(KnnIndex, TreeMatchesBruteForceOnDensifiedEmbedding) {
  // The kd-tree over the embedding and the brute-force scan over its
  // densified matrix must return identical neighbors (site AND rtt bitwise,
  // densify() preserves doubles) for every query site and several k.
  sim::ScenarioConfig config;
  config.site_count = 300;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyMatrix dense = scenario.space.densify();
  const net::KnnIndex tree{scenario.space};
  const net::KnnIndex brute{dense};
  ASSERT_EQ(tree.size(), brute.size());
  for (std::size_t from = 0; from < tree.size(); from += 7) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                                tree.size() + 5}) {
      const auto a = tree.nearest(from, k);
      const auto b = brute.nearest(from, k);
      ASSERT_EQ(a.size(), b.size()) << "from=" << from << " k=" << k;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].site, b[i].site) << "from=" << from << " k=" << k << " i=" << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].rtt_ms),
                  std::bit_cast<std::uint64_t>(b[i].rtt_ms));
      }
    }
  }
}

TEST(KnnIndex, WithinMatchesBruteForce) {
  sim::ScenarioConfig config;
  config.site_count = 200;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyMatrix dense = scenario.space.densify();
  const net::KnnIndex tree{scenario.space};
  const net::KnnIndex brute{dense};
  std::vector<net::KnnIndex::Neighbor> a, b;
  for (std::size_t from = 0; from < tree.size(); from += 11) {
    for (const double radius : {0.0, 20.0, 80.0, 1e9}) {
      tree.within(from, radius, a);
      brute.within(from, radius, b);
      ASSERT_EQ(a.size(), b.size()) << "from=" << from << " r=" << radius;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].site, b[i].site);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].rtt_ms),
                  std::bit_cast<std::uint64_t>(b[i].rtt_ms));
      }
    }
  }
}

// ------------------------------------------- ClientCandidateIndex parity

/// J of `placement` with `element` moved to `site`, by the canonical
/// evaluator.
double naive_if_moved(const net::LatencyMatrix& matrix, const quorum::QuorumSystem& system,
                      const Objective& objective, Placement placement, std::size_t element,
                      std::size_t site) {
  placement.site_of[element] = site;
  return objective.evaluate(matrix, system, placement);
}

/// Sampled candidates of `indexed` against Objective::evaluate.
void expect_candidate_parity(const DeltaEvaluator& indexed, const net::LatencyMatrix& matrix,
                             const quorum::QuorumSystem& system, const Objective& objective,
                             const char* where) {
  for (std::size_t u = 0; u < system.universe_size(); u += 3) {
    for (std::size_t s = 0; s < matrix.size(); s += 5) {
      const double expected =
          naive_if_moved(matrix, system, objective, indexed.placement(), u, s);
      EXPECT_NEAR(indexed.objective_if_moved(u, s), expected, 1e-9 * (1.0 + expected))
          << where << ": candidate (" << u << " -> " << s << ")";
    }
  }
}

/// Applies the first candidate (element-major, then site) that improves
/// `eval` by more than 1e-9; false at a local optimum.
bool apply_first_improving(DeltaEvaluator& eval, std::size_t sites) {
  for (std::size_t u = 0; u < eval.placement().universe_size(); ++u) {
    for (std::size_t s = 0; s < sites; ++s) {
      if (eval.placement().site_of[u] == s) continue;
      if (eval.objective_if_moved(u, s) < eval.objective() - 1e-9) {
        eval.apply_move(u, s);
        return true;
      }
    }
  }
  return false;
}

TEST(ClientCandidateIndex, SparseEvaluationStaysExactAcrossMoveSequence) {
  // The uncapped index is built ONCE from the initial m1 radii; after each
  // accepted move the evaluator repairs its charge lists and coverage
  // overflow set instead of rebuilding. Pin: the stale-index-plus-repair
  // evaluation equals (a) Objective::evaluate of the moved placement and
  // (b) an evaluator with an index freshly rebuilt from the current radii —
  // after every move of an improving sequence.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement placement;
  placement.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) placement.site_of[u] = u;

  const net::KnnIndex knn{scenario.matrix};
  DeltaEvaluator indexed{scenario.matrix, grid, placement, objective};
  const ClientCandidateIndex index =
      ClientCandidateIndex::build(scenario.matrix, &knn, indexed.best_values(), 0);
  indexed.attach_candidate_index(&index);

  expect_candidate_parity(indexed, scenario.matrix, grid, objective, "before any move");

  std::size_t moves = 0;
  for (; moves < 8 && apply_first_improving(indexed, scenario.site_count()); ++moves) {
    const double expected = objective.evaluate(scenario.matrix, grid, indexed.placement());
    EXPECT_NEAR(indexed.objective(), expected, 1e-9 * (1.0 + expected))
        << "after move " << moves;
    expect_candidate_parity(indexed, scenario.matrix, grid, objective,
                            "stale index after moves");

    // Fresh rebuild from the *current* radii must agree with the repaired
    // stale-index path too.
    DeltaEvaluator fresh{scenario.matrix, grid, indexed.placement(), objective};
    const ClientCandidateIndex rebuilt =
        ClientCandidateIndex::build(scenario.matrix, &knn, fresh.best_values(), 0);
    fresh.attach_candidate_index(&rebuilt);
    for (std::size_t u = 0; u < grid.universe_size(); u += 3) {
      for (std::size_t s = 0; s < scenario.site_count(); s += 5) {
        EXPECT_NEAR(indexed.objective_if_moved(u, s), fresh.objective_if_moved(u, s),
                    1e-9 * (1.0 + fresh.objective_if_moved(u, s)))
            << "fresh rebuild after moves: candidate (" << u << " -> " << s << ")";
      }
    }
  }
  EXPECT_GT(moves, 0u) << "the initial placement was already locally optimal";
}

TEST(ClientCandidateIndex, DirtyReaccumulationMatchesFullBitwise) {
  // apply_move re-sums only the sites whose charging multiset changed and
  // reprices only the dirty clients; the pin is BITWISE equality with an
  // evaluator freshly constructed on the moved placement after every
  // accepted move, for both the Grid and the Majority closest engines (the
  // load-aware objective arms the load terms).
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const ClosestStrategyObjective objective = scenario.closest_objective();
  const net::KnnIndex knn{scenario.matrix};

  const auto run = [&](const quorum::QuorumSystem& system, const char* name) {
    Placement placement;
    placement.site_of.resize(system.universe_size());
    for (std::size_t u = 0; u < system.universe_size(); ++u) placement.site_of[u] = u;

    DeltaEvaluator dirty{scenario.matrix, system, placement, objective};
    const ClientCandidateIndex index =
        ClientCandidateIndex::build(scenario.matrix, &knn, dirty.best_values(), 0);
    dirty.attach_candidate_index(&index);

    std::size_t moves = 0;
    for (; moves < 12 && apply_first_improving(dirty, scenario.site_count()); ++moves) {
      const DeltaEvaluator fresh{scenario.matrix, system, dirty.placement(), objective};
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dirty.objective()),
                std::bit_cast<std::uint64_t>(fresh.objective()))
          << name << ": objective diverged after move " << moves;
    }
    EXPECT_GT(moves, 0u) << name << ": vacuous pin, nothing moved";
  };

  run(quorum::GridQuorum{7}, "Grid(7x7)");
  run(quorum::MajorityQuorum{49, 25}, "Majority(25/49)");
}

// ---------------------------- Indexed shortcuts on tie-heavy instances
//
// The closest candidate routine keeps a Grid charger after two compares
// against its keep interval and reprices a non-flipped client from a
// three-term certificate. Ties are where a first-wins argmin or a
// strict/non-strict bound could go wrong, so these instances are full of
// them: integer RTTs over a few levels, duplicated sites (equal rows and
// columns), and an embedding whose min_rtt clamps most pairs to one value.
// Every candidate, with and without an index, must match Objective::evaluate
// of the moved placement; the level-2 audits (asan preset) additionally
// check each shortcut decision and re-chosen quorum exactly.

/// 1-D lattice embedding: integer coordinates in [0, span), zero heights,
/// and RTTs clamped below at `clamp` — most pairs (and every pair sharing a
/// coordinate) sit exactly at the clamp.
net::LatencyEmbedding clamped_lattice(std::size_t n, std::uint64_t seed, std::uint64_t span,
                                      double clamp) {
  common::Rng rng{seed};
  std::vector<double> coordinates(n);
  for (double& x : coordinates) x = static_cast<double>(rng.below(span));
  return net::LatencyEmbedding{1, std::move(coordinates), std::vector<double>(n, 0.0), clamp};
}

/// Demand in {1, 2, 3}, so weights (and hence loads) tie too.
std::vector<double> tied_demand(std::size_t n) {
  std::vector<double> demand(n);
  for (std::size_t v = 0; v < n; ++v) demand[v] = static_cast<double>(1 + v % 3);
  return demand;
}

Placement stride_placement(std::size_t universe, std::size_t sites) {
  Placement placement;
  placement.site_of.resize(universe);
  const std::size_t stride = std::max<std::size_t>(1, sites / universe);
  for (std::size_t u = 0; u < universe; ++u) placement.site_of[u] = (u * stride) % sites;
  return placement;
}

std::uint64_t counter_value(std::string_view name) {
  for (const obs::MetricSnapshot& m : obs::snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Every (element, site) candidate of the no-index, uncapped-index and
/// capped-index evaluators (cap = all sites, so capped evaluation is exact
/// as well) against Objective::evaluate over `dense` (the space's pairwise
/// matrix), before and after each of `moves` accepted first-improving moves
/// (which repair the charge lists, keep intervals and certificates in
/// place).
void expect_indexed_parity(const net::LatencySpace& space, const net::LatencyMatrix& dense,
                           const net::KnnIndex& knn, const quorum::QuorumSystem& system,
                           const Objective& objective, const Placement& initial,
                           std::size_t moves, const std::string& label) {
  const std::size_t sites = space.size();
  std::vector<DeltaEvaluator> evals;
  evals.reserve(3);
  for (int i = 0; i < 3; ++i) evals.emplace_back(space, system, initial, objective);
  const ClientCandidateIndex uncapped =
      ClientCandidateIndex::build(space, &knn, evals[1].best_values(), 0);
  const ClientCandidateIndex capped =
      ClientCandidateIndex::build(space, &knn, evals[2].best_values(), sites);
  evals[1].attach_candidate_index(&uncapped);
  evals[2].attach_candidate_index(&capped);
  const char* const names[] = {" no index", " uncapped", " capped"};
  std::vector<double> expected(system.universe_size() * sites);
  for (std::size_t step = 0; step <= moves; ++step) {
    const std::string when = step == 0 ? " initial" : " after move " + std::to_string(step - 1);
    const Placement& placement = evals[0].placement();
    for (std::size_t u = 0; u < system.universe_size(); ++u) {
      for (std::size_t s = 0; s < sites; ++s) {
        expected[u * sites + s] = naive_if_moved(dense, system, objective, placement, u, s);
      }
    }
    const double current = objective.evaluate(dense, system, placement);
    for (std::size_t i = 0; i < evals.size(); ++i) {
      const std::string where = label + names[i] + when;
      ASSERT_EQ(evals[i].placement().site_of, placement.site_of) << where;
      EXPECT_NEAR(evals[i].objective(), current, 1e-9 * (1.0 + current)) << where;
      for (std::size_t u = 0; u < system.universe_size(); ++u) {
        for (std::size_t s = 0; s < sites; ++s) {
          const double want = expected[u * sites + s];
          ASSERT_NEAR(evals[i].objective_if_moved(u, s), want, 1e-9 * (1.0 + std::fabs(want)))
              << where << ": candidate (" << u << " -> " << s << ")";
        }
      }
    }
    if (step == moves) break;
    // The first candidate improving on the canonical value, applied to all.
    const auto improving = std::find_if(expected.begin(), expected.end(), [&](double x) {
      return x < current - 1e-9;
    });
    if (improving == expected.end()) break;
    const auto at = static_cast<std::size_t>(improving - expected.begin());
    for (DeltaEvaluator& eval : evals) eval.apply_move(at / sites, at % sites);
  }
}

class IndexedShortcuts : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override { obs::reset(); }
};

TEST_F(IndexedShortcuts, GridTieHeavyMatricesMatchFullScan) {
  for (const std::size_t side : {std::size_t{5}, std::size_t{7}}) {
    const quorum::GridQuorum grid{side};
    const std::size_t n = grid.universe_size() + 15;
    const net::LatencyMatrix matrix = tie_heavy_matrix(n, 11 + side, 3);
    const std::vector<double> demand = tied_demand(n);
    const ClosestStrategyObjective loaded{2.0, demand};
    const ClosestStrategyObjective unloaded{0.0};
    const Placement initial = stride_placement(grid.universe_size(), n);
    const net::KnnIndex knn{matrix};
    const std::string label = "grid " + std::to_string(side);
    expect_indexed_parity(matrix, matrix, knn, grid, loaded, initial, 3, label + " loaded");
    expect_indexed_parity(matrix, matrix, knn, grid, unloaded, initial, 3,
                          label + " alpha 0");
  }
  if constexpr (obs::kCompiled) {
    EXPECT_GT(counter_value("core.delta_eval.closest_interval_keeps"), 0u);
    EXPECT_GT(counter_value("core.delta_eval.closest_reprice_certified"), 0u);
  }
}

TEST_F(IndexedShortcuts, GridMinRttClampedEmbeddingMatchesFullScan) {
  for (const std::size_t side : {std::size_t{5}, std::size_t{7}}) {
    const quorum::GridQuorum grid{side};
    const std::size_t n = grid.universe_size() + 20;
    const net::LatencyEmbedding space = clamped_lattice(n, 23 + side, 12, 3.0);
    const std::vector<double> demand = tied_demand(n);
    const ClosestStrategyObjective loaded{1.5, demand};
    const Placement initial = stride_placement(grid.universe_size(), n);
    const net::KnnIndex knn{space};
    expect_indexed_parity(space, space.densify(), knn, grid, loaded, initial, 3,
                          "clamped grid " + std::to_string(side));
  }
  if constexpr (obs::kCompiled) {
    EXPECT_GT(counter_value("core.delta_eval.closest_interval_keeps"), 0u);
  }
}

TEST_F(IndexedShortcuts, ColocatedPlacementTakesTheFallback) {
  // Elements 0 and 1 share a site: that site's chargers may charge through
  // either element, so no keep interval applies and every candidate moving
  // element 0 classifies its chargers by the O(k) argmin instead.
  const quorum::GridQuorum grid{5};
  const std::size_t n = grid.universe_size() + 15;
  const net::LatencyMatrix matrix = tie_heavy_matrix(n, 31, 3);
  const std::vector<double> demand = tied_demand(n);
  const ClosestStrategyObjective objective{2.0, demand};
  Placement colocated = stride_placement(grid.universe_size(), n);
  colocated.site_of[1] = colocated.site_of[0];
  const net::KnnIndex knn{matrix};
  expect_indexed_parity(matrix, matrix, knn, grid, objective, colocated, 3,
                        "colocated grid 5");

  DeltaEvaluator indexed{matrix, grid, colocated, objective};
  const ClientCandidateIndex index =
      ClientCandidateIndex::build(matrix, &knn, indexed.best_values(), 0);
  indexed.attach_candidate_index(&index);
  obs::reset();
  for (std::size_t s = 0; s < n; ++s) (void)indexed.objective_if_moved(0, s);
  if constexpr (obs::kCompiled) {
    EXPECT_EQ(counter_value("core.delta_eval.closest_interval_keeps"), 0u);
    EXPECT_GT(counter_value("core.delta_eval.closest_clients_kept"), 0u)
        << "vacuous: no charger of the colocated site was kept";
  }
}

TEST_F(IndexedShortcuts, MajorityAndFppCertifiedRepriceMatchesFullScan) {
  const quorum::MajorityQuorum majority{13, 7};
  const quorum::FppQuorum fpp{3};
  for (const quorum::QuorumSystem* system :
       {static_cast<const quorum::QuorumSystem*>(&majority),
        static_cast<const quorum::QuorumSystem*>(&fpp)}) {
    const std::size_t n = system->universe_size() + 17;
    const net::LatencyMatrix matrix = tie_heavy_matrix(n, 41, 4);
    const std::vector<double> demand = tied_demand(n);
    const ClosestStrategyObjective objective{2.0, demand};
    const Placement initial = stride_placement(system->universe_size(), n);
    const net::KnnIndex knn{matrix};
    obs::reset();
    expect_indexed_parity(matrix, matrix, knn, *system, objective, initial, 3,
                          system->name());
    if constexpr (obs::kCompiled) {
      EXPECT_GT(counter_value("core.delta_eval.closest_reprice_certified"), 0u)
          << system->name();
    }
  }
}

/// Moves, placement and objective of a local-search run.
struct PinnedSearch {
  std::size_t moves;
  std::vector<std::size_t> site_of;
  double objective;
};

/// `result` equals `expected` exactly (equal placements give equal doubles:
/// the final objective is recomputed from the matrix).
void expect_search_result(const LocalSearchResult& result, const PinnedSearch& expected,
                          const std::string& where) {
  EXPECT_GT(expected.moves, 0u) << where << ": vacuous pin, nothing moved";
  EXPECT_EQ(result.moves, expected.moves) << where;
  ASSERT_EQ(result.placement.site_of, expected.site_of) << where;
  EXPECT_DOUBLE_EQ(result.objective, expected.objective) << where;
}

TEST(SparseSearchParity, TieHeavyGridReproducesDenseTrajectory) {
  // The search runs the keep-interval and certified-reprice paths; the
  // pinned moves and optima are the dense full client scan's (a routine
  // that ran neither), and the Naive engine reaches them too.
  const PinnedSearch pins[] = {
      {16,
       {0, 2, 4, 6, 8, 10, 27, 3, 22, 18, 39, 1, 13, 7, 28, 30, 32, 34, 37, 38, 48, 23, 9, 46,
        24},
       3.5768032993855732},
      {27, {18, 56, 2,  3,  60, 25, 6,  7,  8,  58, 10, 11, 12, 33, 22, 65, 16,
            63, 73, 19, 13, 21, 20, 75, 24, 9,  26, 15, 69, 29, 30, 31, 32, 61,
            34, 71, 55, 37, 38, 70, 40, 36, 42, 43, 44, 45, 74, 66, 64},
       3.2303947421802102},
  };
  for (const std::size_t side : {std::size_t{5}, std::size_t{7}}) {
    const quorum::GridQuorum grid{side};
    const std::size_t n = grid.universe_size() + 30;
    const net::LatencyMatrix matrix = tie_heavy_matrix(n, 53 + side, 4);
    const std::vector<double> demand = tied_demand(n);
    const ClosestStrategyObjective objective{2.0, demand};
    const Placement initial = stride_placement(grid.universe_size(), n);

    LocalSearchOptions options;
    options.objective = &objective;
    options.max_rounds = 50;
    options.threads = 1;
    const PinnedSearch& pin = pins[side == 5 ? 0 : 1];
    const std::string where = "grid " + std::to_string(side);
    expect_search_result(local_search_placement(matrix, grid, initial, options), pin, where);
    options.engine = LocalSearchEngine::Naive;
    expect_search_result(local_search_placement(matrix, grid, initial, options), pin,
                         where + " naive");
  }
}

TEST(SparseSearchParity, CappedEmbeddingTrajectoryIsPinned) {
  // The benchmark's configuration in small: capped candidate lists on an
  // implicit space, where no dense scan exists to compare against. The
  // trajectory is pinned to the one the plain per-client O(k) argmin and
  // O(|Q|) reprice loops produce; the keep intervals and reprice
  // certificates must reproduce it exactly.
  sim::ScenarioConfig config;
  config.name = "sparse-2k";
  config.site_count = 2000;
  config.seed = 7;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::KnnIndex knn{scenario.space};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  const quorum::GridQuorum grid{7};
  const Placement initial = stride_placement(grid.universe_size(), scenario.site_count());

  LocalSearchOptions options;
  options.objective = &objective;
  options.max_rounds = 4;
  options.candidate_knn = 16;
  options.knn = &knn;
  options.threads = 1;
  const LocalSearchResult result =
      local_search_placement(scenario.space, grid, initial, options);

  const std::vector<std::size_t> expected = {
      56,   40,   80,   120,  160,  200,  240,  558,  320,  360,  400,  440,  480,
      520,  560,  600,  640,  680,  720,  760,  800,  840,  880,  920,  960,  1000,
      1040, 1080, 1120, 1160, 1200, 1240, 1280, 1320, 1360, 1400, 1440, 1480, 1520,
      1560, 1600, 1624, 1680, 1727, 1760, 1800, 1840, 1880, 1920};
  EXPECT_EQ(result.moves, 4u);
  EXPECT_EQ(result.placement.site_of, expected);
  EXPECT_DOUBLE_EQ(result.objective, 220.90071763989178);
}

// ------------------------------------- Sparse vs dense local-search parity

/// The acceptance pin: with candidate_knn == 0 the indexed search must
/// reproduce the dense exhaustive scan's decisions exactly — the moves,
/// final placement and objective pinned below are those of the historical
/// dense full client scan from the same start.
LocalSearchResult search_from_stride(const sim::Scenario& scenario, std::size_t max_rounds,
                                     std::size_t grid_side, LocalSearchEngine engine) {
  const quorum::GridQuorum grid{grid_side};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  const std::size_t stride =
      std::max<std::size_t>(1, scenario.site_count() / grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) {
    initial.site_of[u] = u * stride;
  }
  LocalSearchOptions options;
  options.objective = &objective;
  options.max_rounds = max_rounds;
  options.threads = 1;
  options.engine = engine;
  return local_search_placement(scenario.matrix, grid, initial, options);
}

TEST(SparseSearchParity, N49ReproducesDenseLocalOptimum) {
  // Grid 5x5 on 49 sites: the universe must be smaller than n or there are
  // no unused sites and the neighborhood is empty.
  sim::ScenarioConfig config;
  config.name = "synthetic-49";
  config.site_count = 49;
  const sim::Scenario scenario = sim::make_scenario(config);
  const PinnedSearch pin{15,
                         {0,  1,  2,  29, 4,  5,  6,  7,  8,  9,  10, 11, 12,
                          13, 20, 15, 26, 16, 22, 19, 17, 21, 3,  36, 18},
                         156.6071608644304};
  expect_search_result(search_from_stride(scenario, 100, 5, LocalSearchEngine::Delta), pin,
                       "n49");
  expect_search_result(search_from_stride(scenario, 100, 5, LocalSearchEngine::Naive), pin,
                       "n49 naive");
}

TEST(SparseSearchParity, N161ReproducesDenseLocalOptimum) {
  const PinnedSearch pin{92,
                         {26, 16, 56, 6,   0,  15,  21, 8,  3,  47, 30, 33, 42,
                          18, 70, 29, 50,  23, 36,  13, 27, 57, 17, 22, 62, 51,
                          58, 52, 4,  61,  28, 32,  37, 116, 19, 11, 38, 149, 12,
                          43, 41, 20, 65,  97, 7,   14, 54, 124, 31},
                         93.090580254707689};
  expect_search_result(
      search_from_stride(sim::daxlist161_scenario(), 100, 7, LocalSearchEngine::Delta), pin,
      "n161");
}

TEST(SparseSearchParity, N500ReproducesDenseTrajectory) {
  // Full convergence at n = 500 is a benchmark, not a unit test; a bounded
  // round budget pins the same-trajectory property at the largest config.
  const PinnedSearch pin{
      4,
      {0,   10,  20,  30,  40,  50,  481, 70,  80,  90,  100, 110, 120, 273, 140, 150, 160,
       170, 180, 190, 200, 210, 220, 230, 240, 250, 260, 270, 280, 290, 300, 310, 320, 330,
       340, 350, 360, 370, 165, 164, 400, 410, 420, 430, 440, 450, 460, 470, 480},
      171.83885665068274};
  expect_search_result(
      search_from_stride(sim::synthetic500_scenario(), 4, 7, LocalSearchEngine::Delta), pin,
      "n500");
}

TEST(SparseSearchParity, KnnCandidateListCoveringAllSitesMatchesDense) {
  // candidate_knn >= n enumerates the same targets as the dense scan (in
  // the same ascending-site order), so the whole knn-target path must land
  // on the dense scan's optimum.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) initial.site_of[u] = u;

  const net::KnnIndex knn{scenario.matrix};
  LocalSearchOptions options;
  options.objective = &objective;
  options.threads = 1;
  options.candidate_knn = scenario.site_count();  // k >= n: full list.
  options.knn = &knn;
  const PinnedSearch pin{18,
                         {0,  1,  2,  41, 4,  5,  116, 7,  8,  45, 10, 11, 12,
                          13, 14, 15, 49, 17, 18, 19,  22, 21, 16, 23, 24, 25,
                          26, 27, 28, 29, 30, 31, 32,  33, 102, 35, 36, 37, 38,
                          39, 42, 20, 58, 43, 44, 9,   54, 52, 65},
                         91.324438907074338};
  expect_search_result(local_search_placement(scenario.matrix, grid, initial, options), pin,
                       "knn covering all sites");
}

TEST(SparseSearchParity, CappedIndexStillProducesImprovingSequence) {
  // Capped lists make candidate *ranking* approximate; applies stay exact,
  // so best-improvement rounds over the unused sites, ranked through a
  // cap-16 index, must still end below the start.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) initial.site_of[u] = u;

  DeltaEvaluator eval{scenario.matrix, grid, initial, objective};
  const net::KnnIndex knn{scenario.matrix};
  const ClientCandidateIndex index =
      ClientCandidateIndex::build(scenario.matrix, &knn, eval.best_values(), 16);
  ASSERT_TRUE(index.capped());
  eval.attach_candidate_index(&index);

  std::vector<bool> used(scenario.site_count(), false);
  for (std::size_t site : initial.site_of) used[site] = true;
  std::size_t moves = 0;
  for (; moves < 10; ++moves) {  // Improvement, not convergence — keep it cheap.
    std::size_t best_u = grid.universe_size();
    std::size_t best_s = 0;
    double best = eval.objective() - 1e-9;
    for (std::size_t u = 0; u < grid.universe_size(); ++u) {
      for (std::size_t s = 0; s < scenario.site_count(); ++s) {
        if (used[s]) continue;
        const double candidate = eval.objective_if_moved(u, s);
        if (candidate < best) {
          best = candidate;
          best_u = u;
          best_s = s;
        }
      }
    }
    if (best_u == grid.universe_size()) break;
    used[eval.placement().site_of[best_u]] = false;
    used[best_s] = true;
    eval.apply_move(best_u, best_s);
    const double exact = objective.evaluate(scenario.matrix, grid, eval.placement());
    EXPECT_NEAR(eval.objective(), exact, 1e-9 * (1.0 + exact)) << "after move " << moves;
  }
  EXPECT_GT(moves, 0u);
  EXPECT_LT(objective.evaluate(scenario.matrix, grid, eval.placement()),
            objective.evaluate(scenario.matrix, grid, initial));
  eval.placement().validate(scenario.site_count());
}

}  // namespace
}  // namespace qp::core
