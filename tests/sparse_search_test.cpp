// Parity suites for the sparse candidate-search stack: the kd-tree KnnIndex
// against the brute-force reference, the ClientCandidateIndex sparse
// evaluation against the dense full scan (including after move sequences,
// where the evaluator repairs its charge/overflow state incrementally), and
// — the acceptance pin — sparse local search reproducing the dense
// exhaustive scan's local optimum on every n <= 500 config.
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

namespace qp::core {
namespace {

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

/// Indexed evaluator vs dense evaluator, candidate-by-candidate.
void expect_candidate_parity(const DeltaEvaluator& indexed, const DeltaEvaluator& dense,
                             std::size_t universe, std::size_t sites,
                             const char* where) {
  for (std::size_t u = 0; u < universe; u += 3) {
    for (std::size_t s = 0; s < sites; s += 5) {
      EXPECT_NEAR(indexed.objective_if_moved(u, s), dense.objective_if_moved(u, s),
                  1e-9 * (1.0 + dense.objective_if_moved(u, s)))
          << where << ": candidate (" << u << " -> " << s << ")";
    }
  }
}

TEST(ClientCandidateIndex, SparseEvaluationStaysExactAcrossMoveSequence) {
  // The uncapped index is built ONCE from the initial m1 radii; after each
  // accepted move the evaluator repairs its charge index and coverage
  // overflow set instead of rebuilding. Pin: the stale-index-plus-repair
  // evaluation equals (a) the dense full scan and (b) an evaluator with an
  // index freshly rebuilt from the current radii — after every move of an
  // improving sequence.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement placement;
  placement.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) placement.site_of[u] = u;

  const net::KnnIndex knn{scenario.matrix};
  DeltaEvaluator dense{scenario.matrix, grid, placement, objective};
  DeltaEvaluator indexed{scenario.matrix, grid, placement, objective};
  const ClientCandidateIndex index = ClientCandidateIndex::build(
      scenario.matrix, &knn, indexed.best_values(), {});
  indexed.attach_candidate_index(&index);

  expect_candidate_parity(indexed, dense, grid.universe_size(), scenario.site_count(),
                          "before any move");

  // A deterministic improving move sequence: repeatedly take the first
  // improving candidate the dense evaluator finds.
  std::size_t moves = 0;
  for (; moves < 8; ++moves) {
    bool accepted = false;
    for (std::size_t u = 0; u < grid.universe_size() && !accepted; ++u) {
      for (std::size_t s = 0; s < scenario.site_count() && !accepted; ++s) {
        if (dense.placement().site_of[u] == s) continue;
        if (dense.objective_if_moved(u, s) < dense.objective() - 1e-9) {
          dense.apply_move(u, s);
          indexed.apply_move(u, s);
          accepted = true;
        }
      }
    }
    if (!accepted) break;

    EXPECT_NEAR(indexed.objective(), dense.objective(), 1e-9 * (1.0 + dense.objective()))
        << "after move " << moves;
    expect_candidate_parity(indexed, dense, grid.universe_size(), scenario.site_count(),
                            "stale index after moves");

    // Fresh rebuild from the *current* radii must agree with the repaired
    // stale-index path too.
    DeltaEvaluator fresh{scenario.matrix, grid, dense.placement(), objective};
    const ClientCandidateIndex rebuilt = ClientCandidateIndex::build(
        scenario.matrix, &knn, fresh.best_values(), {});
    fresh.attach_candidate_index(&rebuilt);
    expect_candidate_parity(indexed, fresh, grid.universe_size(), scenario.site_count(),
                            "fresh rebuild after moves");
  }
  EXPECT_GT(moves, 0u) << "the initial placement was already locally optimal";
}

TEST(ClientCandidateIndex, DirtyReaccumulationMatchesFullBitwise) {
  // apply_move with charge lists maintained re-sums only the sites whose
  // charging multiset changed and reprices only the dirty clients; the pin
  // is BITWISE equality with the detached evaluator's full O(clients x |Q|)
  // reaccumulation after every accepted move, for both the Grid and the
  // Majority closest engines (the load-aware objective arms the load terms).
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const ClosestStrategyObjective objective = scenario.closest_objective();
  const net::KnnIndex knn{scenario.matrix};

  const auto run = [&](const quorum::QuorumSystem& system, const char* name) {
    Placement placement;
    placement.site_of.resize(system.universe_size());
    for (std::size_t u = 0; u < system.universe_size(); ++u) placement.site_of[u] = u;

    DeltaEvaluator full{scenario.matrix, system, placement, objective};
    DeltaEvaluator dirty{scenario.matrix, system, placement, objective};
    const ClientCandidateIndex index =
        ClientCandidateIndex::build(scenario.matrix, &knn, dirty.best_values(), {});
    dirty.attach_candidate_index(&index);

    std::size_t moves = 0;
    for (; moves < 12; ++moves) {
      bool accepted = false;
      for (std::size_t u = 0; u < system.universe_size() && !accepted; ++u) {
        for (std::size_t s = 0; s < scenario.site_count() && !accepted; ++s) {
          if (full.placement().site_of[u] == s) continue;
          if (full.objective_if_moved(u, s) < full.objective() - 1e-9) {
            full.apply_move(u, s);
            dirty.apply_move(u, s);
            accepted = true;
          }
        }
      }
      if (!accepted) break;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dirty.objective()),
                std::bit_cast<std::uint64_t>(full.objective()))
          << name << ": objective diverged after move " << moves;
    }
    EXPECT_GT(moves, 0u) << name << ": vacuous pin, nothing moved";
  };

  run(quorum::GridQuorum{7}, "Grid(7x7)");
  run(quorum::MajorityQuorum{49, 25}, "Majority(25/49)");
}

// ---------------------------- Indexed shortcuts on tie-heavy instances
//
// The indexed closest path keeps a Grid charger after two compares against
// its keep interval and reprices a non-flipped client from a three-term
// certificate. Ties are where a first-wins argmin or a strict/non-strict
// bound could go wrong, so these instances are full of them: integer RTTs
// over a few levels, duplicated sites (equal rows and columns), and an
// embedding whose min_rtt clamps most pairs to one value. Every candidate
// of the indexed evaluator must match the full client scan; the level-2
// audits (asan preset) additionally check each shortcut decision exactly.

/// Symmetric integer RTTs in {1, ..., levels} (0 on the diagonal); every
/// third site duplicates its predecessor (equal rows and columns, RTT 0
/// between the pair).
net::LatencyMatrix tie_heavy_matrix(std::size_t n, std::uint64_t seed, std::uint64_t levels) {
  common::Rng rng{seed};
  std::vector<std::vector<double>> rtt(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      rtt[i][j] = rtt[j][i] = static_cast<double>(1 + rng.below(levels));
    }
  }
  for (std::size_t b = 2; b < n; b += 3) {
    const std::size_t a = b - 1;
    for (std::size_t x = 0; x < n; ++x) {
      if (x != a && x != b) rtt[b][x] = rtt[x][b] = rtt[a][x];
    }
    rtt[a][b] = rtt[b][a] = 0.0;
  }
  return net::LatencyMatrix{std::move(rtt)};
}

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

/// Every (element, site) candidate of `indexed` against the full client scan
/// of `full` (an evaluator of the same placement without an index).
void expect_every_candidate_matches(const DeltaEvaluator& indexed, const DeltaEvaluator& full,
                                    std::size_t sites, const std::string& where) {
  for (std::size_t u = 0; u < full.placement().universe_size(); ++u) {
    for (std::size_t s = 0; s < sites; ++s) {
      const double expected = full.objective_if_moved(u, s);
      ASSERT_NEAR(indexed.objective_if_moved(u, s), expected,
                  1e-9 * (1.0 + std::fabs(expected)))
          << where << ": candidate (" << u << " -> " << s << ")";
    }
  }
}

/// Indexed-vs-full parity for every candidate, uncapped and with capped
/// lists (cap = all sites, so capped evaluation is exact as well), before
/// and after each of `moves` accepted first-improving moves (which repair
/// the charge lists, keep intervals and certificates in place).
void expect_indexed_parity(const net::LatencySpace& space, const net::KnnIndex& knn,
                           const quorum::QuorumSystem& system, const Objective& objective,
                           const Placement& initial, std::size_t moves,
                           const std::string& label) {
  for (const std::size_t cap : {std::size_t{0}, space.size()}) {
    const std::string where = label + (cap == 0 ? " uncapped" : " capped");
    DeltaEvaluator full{space, system, initial, objective};
    DeltaEvaluator indexed{space, system, initial, objective};
    ClientCandidateIndex::Config config;
    config.cap = cap;
    const ClientCandidateIndex index =
        ClientCandidateIndex::build(space, &knn, indexed.best_values(), config);
    indexed.attach_candidate_index(&index);
    expect_every_candidate_matches(indexed, full, space.size(), where + " initial");
    for (std::size_t step = 0; step < moves; ++step) {
      bool accepted = false;
      for (std::size_t u = 0; u < system.universe_size() && !accepted; ++u) {
        for (std::size_t s = 0; s < space.size() && !accepted; ++s) {
          if (full.placement().site_of[u] == s) continue;
          if (full.objective_if_moved(u, s) < full.objective() - 1e-9) {
            full.apply_move(u, s);
            indexed.apply_move(u, s);
            accepted = true;
          }
        }
      }
      if (!accepted) break;
      EXPECT_NEAR(indexed.objective(), full.objective(), 1e-9 * (1.0 + full.objective()))
          << where << " after move " << step;
      expect_every_candidate_matches(indexed, full, space.size(),
                                     where + " after move " + std::to_string(step));
    }
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
    expect_indexed_parity(matrix, knn, grid, loaded, initial, 3, label + " loaded");
    expect_indexed_parity(matrix, knn, grid, unloaded, initial, 3, label + " alpha 0");
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
    expect_indexed_parity(space, knn, grid, loaded, initial, 3,
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
  expect_indexed_parity(matrix, knn, grid, objective, colocated, 3, "colocated grid 5");

  DeltaEvaluator indexed{matrix, grid, colocated, objective};
  const ClientCandidateIndex index =
      ClientCandidateIndex::build(matrix, &knn, indexed.best_values(), {});
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
    expect_indexed_parity(matrix, knn, *system, objective, initial, 3, system->name());
    if constexpr (obs::kCompiled) {
      EXPECT_GT(counter_value("core.delta_eval.closest_reprice_certified"), 0u)
          << system->name();
    }
  }
}

TEST(SparseSearchParity, TieHeavyGridReproducesDenseTrajectory) {
  // The sparse search runs the keep-interval and certified-reprice paths;
  // the dense full scan runs neither. Same moves, same local optimum.
  for (const std::size_t side : {std::size_t{5}, std::size_t{7}}) {
    const quorum::GridQuorum grid{side};
    const std::size_t n = grid.universe_size() + 30;
    const net::LatencyMatrix matrix = tie_heavy_matrix(n, 53 + side, 4);
    const std::vector<double> demand = tied_demand(n);
    const ClosestStrategyObjective objective{2.0, demand};
    const Placement initial = stride_placement(grid.universe_size(), n);

    LocalSearchOptions dense_options;
    dense_options.objective = &objective;
    dense_options.max_rounds = 50;
    dense_options.client_index = false;
    dense_options.threads = 1;
    const LocalSearchResult dense =
        local_search_placement(matrix, grid, initial, dense_options);
    LocalSearchOptions sparse_options = dense_options;
    sparse_options.client_index = true;
    const LocalSearchResult sparse =
        local_search_placement(matrix, grid, initial, sparse_options);

    EXPECT_GT(dense.moves, 0u) << "grid " << side << ": vacuous parity, nothing moved";
    EXPECT_EQ(sparse.moves, dense.moves) << "grid " << side;
    ASSERT_EQ(sparse.placement.site_of, dense.placement.site_of) << "grid " << side;
    EXPECT_DOUBLE_EQ(sparse.objective, dense.objective) << "grid " << side;
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

/// The acceptance pin: parity mode (candidate_knn == 0, uncapped client
/// index) must reproduce the dense exhaustive scan's decisions exactly —
/// same moves, same final placement. Both runs recompute the final
/// objective from the matrix, so equal placements give equal doubles.
void expect_search_parity(const sim::Scenario& scenario, std::size_t max_rounds,
                          std::size_t grid_side = 7) {
  const quorum::GridQuorum grid{grid_side};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  const std::size_t stride =
      std::max<std::size_t>(1, scenario.site_count() / grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) {
    initial.site_of[u] = u * stride;
  }

  LocalSearchOptions dense_options;
  dense_options.objective = &objective;
  dense_options.max_rounds = max_rounds;
  dense_options.client_index = false;  // The historical dense full scan.
  dense_options.threads = 1;
  const LocalSearchResult dense =
      local_search_placement(scenario.matrix, grid, initial, dense_options);

  LocalSearchOptions sparse_options = dense_options;
  sparse_options.client_index = true;
  sparse_options.client_index_cap = 0;  // Uncapped = exact parity mode.
  const LocalSearchResult sparse =
      local_search_placement(scenario.matrix, grid, initial, sparse_options);

  EXPECT_GT(dense.moves, 0u) << scenario.name << ": vacuous parity, nothing moved";
  EXPECT_EQ(sparse.moves, dense.moves) << scenario.name;
  ASSERT_EQ(sparse.placement.site_of, dense.placement.site_of) << scenario.name;
  EXPECT_DOUBLE_EQ(sparse.objective, dense.objective) << scenario.name;
}

TEST(SparseSearchParity, N49ReproducesDenseLocalOptimum) {
  // Grid 5x5 on 49 sites: the universe must be smaller than n or there are
  // no unused sites and the neighborhood is empty.
  sim::ScenarioConfig config;
  config.name = "synthetic-49";
  config.site_count = 49;
  expect_search_parity(sim::make_scenario(config), /*max_rounds=*/100, /*grid_side=*/5);
}

TEST(SparseSearchParity, N161ReproducesDenseLocalOptimum) {
  expect_search_parity(sim::daxlist161_scenario(), /*max_rounds=*/100);
}

TEST(SparseSearchParity, N500ReproducesDenseTrajectory) {
  // Full convergence at n = 500 is a benchmark, not a unit test; a bounded
  // round budget pins the same-trajectory property at the largest config.
  expect_search_parity(sim::synthetic500_scenario(), /*max_rounds=*/4);
}

TEST(SparseSearchParity, KnnCandidateListCoveringAllSitesMatchesDense) {
  // candidate_knn >= n enumerates the same targets as the dense scan (in
  // the same ascending-site order), so the whole knn-target path must land
  // on the identical optimum.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) initial.site_of[u] = u;

  LocalSearchOptions dense_options;
  dense_options.objective = &objective;
  dense_options.client_index = false;
  dense_options.threads = 1;
  const LocalSearchResult dense =
      local_search_placement(scenario.matrix, grid, initial, dense_options);

  const net::KnnIndex knn{scenario.matrix};
  LocalSearchOptions knn_options = dense_options;
  knn_options.client_index = true;
  knn_options.candidate_knn = scenario.site_count();  // k >= n: full list.
  knn_options.knn = &knn;
  const LocalSearchResult sparse =
      local_search_placement(scenario.matrix, grid, initial, knn_options);

  EXPECT_EQ(sparse.moves, dense.moves);
  ASSERT_EQ(sparse.placement.site_of, dense.placement.site_of);
  EXPECT_DOUBLE_EQ(sparse.objective, dense.objective);
}

TEST(SparseSearchParity, CappedIndexStillProducesImprovingSequence) {
  // Capped lists make candidate *ranking* approximate; applies stay exact,
  // so the result must still be a genuine improvement over the start.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) initial.site_of[u] = u;
  const double initial_objective = objective.evaluate(scenario.matrix, grid, initial);

  LocalSearchOptions options;
  options.objective = &objective;
  options.max_rounds = 10;  // Improvement, not convergence — keep it cheap.
  options.client_index = true;
  options.client_index_cap = 16;
  options.threads = 1;
  const LocalSearchResult result =
      local_search_placement(scenario.matrix, grid, initial, options);
  EXPECT_GT(result.moves, 0u);
  EXPECT_LT(result.objective, initial_objective);
  result.placement.validate(scenario.site_count());
}

}  // namespace
}  // namespace qp::core
