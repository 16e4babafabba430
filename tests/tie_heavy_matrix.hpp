// Shared by the closest-strategy test suites: latency matrices full of
// exact ties, where a first-wins argmin or a strict/non-strict bound can go
// wrong.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/latency_matrix.hpp"

namespace qp::net {

/// Symmetric integer RTTs in {1, ..., levels} (0 on the diagonal); every
/// third site duplicates its predecessor (equal rows and columns, RTT 0
/// between the pair).
inline LatencyMatrix tie_heavy_matrix(std::size_t n, std::uint64_t seed, std::uint64_t levels) {
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
  return LatencyMatrix{std::move(rtt)};
}

}  // namespace qp::net
