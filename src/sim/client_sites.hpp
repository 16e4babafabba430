// Client-site selection matching §3's methodology: "we computed a set of 10
// client locations for which the average network delay to the server
// placement approximates the average network delay from all the nodes of
// the graph to the server placement well."
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "net/latency_matrix.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::sim {

/// Chooses `count` sites whose uniform-strategy expected network delays to
/// the placement bracket the all-sites average: sites are ranked by
/// |Delta_v - avg_v Delta_v| and the closest `count` are returned (sorted by
/// site index). Throws if count exceeds the site count.
[[nodiscard]] std::vector<std::size_t> representative_client_sites(
    const net::LatencyMatrix& matrix, const quorum::QuorumSystem& system,
    const core::Placement& placement, std::size_t count);

/// The per-site client counts run_engine_closed_loop takes: `per_site`
/// clients at each of `sites`, none elsewhere. Throws std::out_of_range on a
/// site >= site_count.
[[nodiscard]] std::vector<std::size_t> clients_at_sites(std::size_t site_count,
                                                        std::span<const std::size_t> sites,
                                                        std::size_t per_site);

}  // namespace qp::sim
