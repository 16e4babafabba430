// ClientCandidateIndex: per-client k-nearest site lists plus the inverted
// site -> clients index that makes candidate evaluation sparse.
//
// For the closest access strategy, a candidate move f(u) <- b can only
// change client v's quorum *choice* if
//   * v currently charges u's site (u might leave v's chosen quorum), or
//   * d(v, b) <= m1(v), the chosen quorum's network value (b might enter).
// The first set comes from the evaluator's charge lists (repaired per
// accepted move); the second is exactly "the clients whose candidate list
// contains b" — provided each client's list covers every site within its
// m1. This index stores those lists (CSR, ascending site id) and their
// inversion (CSR, ascending client id), so DeltaEvaluator can enumerate the
// affected clients of a candidate in output-sensitive time. An evaluator
// with no index attached classifies all n clients per candidate.
//
// Two modes:
//  * Uncapped (cap == 0): each list covers radius[v] * kMargin (at least
//    kMinSites sites). Combined with the evaluator's overflow tracking
//    (clients whose m1 outgrows their covered radius are always checked),
//    candidate evaluation is EXACT — the indexed path returns what the same
//    routine over every client returns, up to FP summation order. Local
//    search uses it on every dense matrix.
//  * Capped (cap > 0): each list is the cap nearest sites. Coverage of m1
//    is no longer guaranteed, so candidate *ranking* becomes approximate
//    (a flip triggered by a site outside every list can be missed), and a
//    move ranked as improving can raise the true objective. apply_move
//    stays exact, so the objective the evaluator reports after a move is
//    the true one. This bounds memory at O(n * cap) for the 10k-50k
//    regime.
//
// Lists are static after build; the evaluator re-checks coverage against
// the current m1 after every accepted move (see overflow_clients_).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/knn_index.hpp"
#include "net/latency_space.hpp"

namespace qp::core {

class ClientCandidateIndex {
 public:
  /// Uncapped coverage slack: lists cover radius[v] * kMargin, so m1 can
  /// grow this much across moves before the client falls into the
  /// always-checked overflow set.
  static constexpr double kMargin = 1.25;
  /// Uncapped lists never hold fewer than this many sites (when n allows).
  static constexpr std::size_t kMinSites = 8;

  /// Builds lists for every site-as-client of `space`: uncapped (`cap` ==
  /// 0) or the `cap` nearest sites. `radius` is the per-client coverage
  /// target of the uncapped mode (typically the evaluator's current m1
  /// values); empty means 0 (kMinSites-only lists). `knn` accelerates the
  /// list queries and is required when `space.as_matrix()` is null;
  /// otherwise a brute-force dense scan is used. Throws
  /// std::invalid_argument on a size mismatch or missing backend.
  [[nodiscard]] static ClientCandidateIndex build(const net::LatencySpace& space,
                                                  const net::KnnIndex* knn,
                                                  std::span<const double> radius,
                                                  std::size_t cap);

  [[nodiscard]] std::size_t size() const noexcept { return radius_.size(); }
  [[nodiscard]] bool capped() const noexcept { return capped_; }

  /// Client v's candidate sites, ascending site id.
  [[nodiscard]] std::span<const std::size_t> sites_of(std::size_t client) const;
  /// Coverage radius actually guaranteed for v: every site with
  /// rtt(v, s) <= covered_radius(v) is in sites_of(v). Meaningful for the
  /// uncapped mode (capped lists guarantee only the cap nearest).
  [[nodiscard]] double covered_radius(std::size_t client) const;
  /// Clients whose list contains `site`, ascending client id.
  [[nodiscard]] std::span<const std::size_t> clients_of(std::size_t site) const;

  /// Total list entries (forward == inverted); memory/coverage telemetry.
  [[nodiscard]] std::size_t total_entries() const noexcept { return sites_.size(); }

 private:
  bool capped_ = false;
  std::vector<std::size_t> offsets_;      // clients + 1.
  std::vector<std::size_t> sites_;        // concatenated lists.
  std::vector<double> radius_;            // per-client covered radius.
  std::vector<std::size_t> inv_offsets_;  // sites + 1.
  std::vector<std::size_t> inv_clients_;  // concatenated inverted lists.
};

}  // namespace qp::core
