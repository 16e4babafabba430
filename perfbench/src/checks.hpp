// Output checks applied to every plan the benchmark produces. Each check
// throws CheckFailure naming what did not hold; the runner counts a plan
// that throws as failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/placement.hpp"
#include "core/strategy.hpp"

namespace perfbench {

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Placement::validate against `site_count`, the expected universe size,
/// and (when `one_to_one`) no two elements on one site.
void check_placement(const qp::core::Placement& placement, std::size_t site_count,
                     std::size_t universe_size, bool one_to_one);

/// ExplicitStrategy::validate for `client_count` clients.
void check_strategy(const qp::core::ExplicitStrategy& strategy, std::size_t client_count,
                    std::size_t universe_size);

/// `fresh` (recomputed from scratch) agrees with `planner` to a relative
/// 1e-9 — the two differ only in floating-point summation order.
void check_agrees(const char* what, double planner, double fresh);

/// FNV-1a digest over the placement and every strategy probability's bit
/// pattern: equal digests mean bit-identical plans.
[[nodiscard]] std::uint64_t plan_digest(const qp::core::Placement& placement,
                                        const qp::core::ExplicitStrategy& strategy);

}  // namespace perfbench
