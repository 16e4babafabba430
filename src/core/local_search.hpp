// Local-search placement improvement — a baseline the paper does not
// evaluate, used here as an ablation: how close are the constructive
// placements of §4.1.1 to a local optimum of the search objective? The
// search relocates one universe element at a time to an unused site until a
// local optimum, under any core::Objective (pure network delay by default,
// the load-aware §7 response time via LoadAwareObjective, the §6 closest
// strategy via ClosestStrategyObjective — each optionally demand-weighted).
//
// Two evaluation engines share the same semantics and tie-breaking:
//   * Delta — incremental evaluation via core::DeltaEvaluator: O(log n) per
//     client per candidate instead of a full re-sort, optionally scanning
//     the neighborhood on the shared thread pool. The parallel scan only
//     distributes candidate evaluation; the accept decision replays the
//     serial scan order, so results are bit-identical for any thread count.
//   * Naive — full objective re-evaluation per candidate; the reference
//     path, kept for benchmarking and parity tests.
//
// Two accept strategies:
//   * BestImprovement  — each round scans every (element, unused site)
//     relocation and takes the best strictly-improving move (first such move
//     in scan order wins ties).
//   * FirstImprovement — each round takes the FIRST strictly-improving move
//     in the deterministic (element, site) scan order, skipping the rest of
//     the neighborhood; rounds are cheaper while improving moves are dense.
//     The Delta engine evaluates fixed-size candidate blocks in parallel and
//     accepts the lowest-index improvement, which is independent of the
//     block size and thread count — deterministic.
// Sparse candidate search (the 10k-50k-site regime): `candidate_knn`
// restricts each element's relocation targets to the k sites nearest its
// current site (via a net::KnnIndex). Closest-strategy objectives always
// evaluate candidates through a ClientCandidateIndex, so one candidate
// touches only the clients it can affect: uncapped lists (exact, rebuilt
// from the current m1 radii every 16 accepted moves) on a dense matrix,
// lists capped at max(64, candidate_knn) sites (approximate ranking, exact
// applies) on an implicit space. With candidate_knn == 0 on a dense matrix
// the search replays the dense exhaustive scan's decisions exactly (same
// candidate order, evaluation equal up to FP summation order) — the parity
// suites pin that on every n <= 500 config.
#pragma once

#include <cstddef>

#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/knn_index.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

enum class LocalSearchEngine {
  Delta,  // Incremental (default): identical moves, orders of magnitude faster.
  Naive,  // Full re-evaluation per candidate move.
};

enum class LocalSearchStrategy {
  BestImprovement,   // Full neighborhood scan, steepest descent (default).
  FirstImprovement,  // First improving move in deterministic scan order.
};

struct LocalSearchOptions {
  /// Hard cap on improvement rounds (each round accepts at most one move).
  std::size_t max_rounds = 100;
  /// A move must improve the objective by more than this to be taken.
  double min_improvement = 1e-9;
  /// Evaluation engine; Delta and Naive agree to ~1e-12 per candidate.
  LocalSearchEngine engine = LocalSearchEngine::Delta;
  /// Accept strategy; both reach (possibly different) local optima.
  LocalSearchStrategy strategy = LocalSearchStrategy::BestImprovement;
  /// Search objective; nullptr = pure network delay. The pointee must
  /// outlive the call.
  const Objective* objective = nullptr;
  /// Worker threads for the Delta candidate scan: 0 = the shared global
  /// pool, 1 = fully serial, n > 1 = a dedicated pool of n threads.
  /// Bit-identical results for every setting. Ignored by the Naive engine.
  std::size_t threads = 0;
  /// 0 scans every unused site per element (the historical dense scan);
  /// k > 0 restricts each element's candidate targets to the k unused sites
  /// nearest its current site (targets enumerated in ascending site order,
  /// so k >= n reproduces the dense candidate list exactly). Delta engine
  /// only.
  std::size_t candidate_knn = 0;
  /// k-NN index over the search space, used for candidate targets and for
  /// building the client candidate lists. Optional when the space has a
  /// dense matrix (a brute-force index is built on the fly); required with
  /// candidate_knn > 0 or a closest objective on an implicit space. Must be
  /// built over `space` and outlive the call.
  const net::KnnIndex* knn = nullptr;
};

struct LocalSearchResult {
  Placement placement;
  /// Objective value of the final placement (avg_v E_uniform[max d] for the
  /// default network-delay objective).
  double objective = 0.0;
  /// Number of accepted relocation moves.
  std::size_t moves = 0;
};

/// Hill-climbs from `initial` (must be one-to-one) and returns a placement
/// that no single-element relocation improves. Deterministic. The space may
/// be a dense LatencyMatrix (every historical caller) or an implicit
/// LatencySpace such as a LatencyEmbedding; the Naive engine and
/// non-delta-capable objectives require a dense matrix (full re-evaluation
/// is O(n^2)) and throw std::invalid_argument on an implicit space.
[[nodiscard]] LocalSearchResult local_search_placement(const net::LatencySpace& space,
                                                       const quorum::QuorumSystem& system,
                                                       const Placement& initial,
                                                       const LocalSearchOptions& options = {});

}  // namespace qp::core
