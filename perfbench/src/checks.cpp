#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <string>

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix(std::uint64_t& hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffU;
    hash *= kFnvPrime;
  }
}

}  // namespace

void check_placement(const qp::core::Placement& placement, std::size_t site_count,
                     std::size_t universe_size, bool one_to_one) {
  try {
    placement.validate(site_count);
  } catch (const std::exception& error) {
    throw CheckFailure{std::string{"placement invalid: "} + error.what()};
  }
  if (placement.universe_size() != universe_size) {
    throw CheckFailure{"placement covers the wrong universe size"};
  }
  if (one_to_one && !placement.one_to_one()) {
    throw CheckFailure{"placement is not one-to-one"};
  }
}

void check_strategy(const qp::core::ExplicitStrategy& strategy, std::size_t client_count,
                    std::size_t universe_size) {
  try {
    strategy.validate(client_count, universe_size);
  } catch (const std::exception& error) {
    throw CheckFailure{std::string{"strategy invalid: "} + error.what()};
  }
}

void check_agrees(const char* what, double planner, double fresh) {
  const double scale = std::max({1.0, std::abs(planner), std::abs(fresh)});
  if (!std::isfinite(planner) || !std::isfinite(fresh) ||
      std::abs(planner - fresh) > 1e-9 * scale) {
    throw CheckFailure{std::string{what} + ": planner reported " + std::to_string(planner) +
                       ", fresh evaluation gives " + std::to_string(fresh)};
  }
}

std::uint64_t plan_digest(const qp::core::Placement& placement,
                          const qp::core::ExplicitStrategy& strategy) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t site : placement.site_of) mix(hash, site);
  for (const qp::quorum::Quorum& quorum : strategy.quorums) {
    mix(hash, quorum.size());
    for (std::size_t u : quorum) mix(hash, u);
  }
  for (const std::vector<double>& row : strategy.probability) {
    for (double p : row) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &p, sizeof bits);
      mix(hash, bits);
    }
  }
  return hash;
}

}  // namespace perfbench
