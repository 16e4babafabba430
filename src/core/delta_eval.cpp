#include "core/delta_eval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"
#include "common/simd_kernels.hpp"
#include "core/client_index.hpp"
#include "obs/metrics.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"

namespace qp::core {

namespace {

// Candidate-evaluation telemetry: which dispatch path served each
// objective_if_moved call, plus per-client classification tallies for the
// closest engines (pruned = provably unchanged, kept = slot retained,
// recomputed = full quorum re-choice). Tallies are accumulated into stack
// locals and recorded with one or two shard adds per *call* — never per
// client — so the per-candidate overhead stays flat.
const obs::Counter c_de_candidates = obs::counter("core.delta_eval.candidates");
const obs::Counter c_de_fast = obs::counter("core.delta_eval.fast_path");
const obs::Counter c_de_general =
    obs::counter("core.delta_eval.general_fallbacks");
const obs::Counter c_de_closest_indexed =
    obs::counter("core.delta_eval.closest_indexed_scans");
const obs::Counter c_de_pruned =
    obs::counter("core.delta_eval.closest_clients_pruned");
const obs::Counter c_de_kept =
    obs::counter("core.delta_eval.closest_clients_kept");
const obs::Counter c_de_recomputed =
    obs::counter("core.delta_eval.closest_clients_recomputed");
// Indexed closest path: kept chargers resolved by their Grid keep interval
// (a subset of closest_clients_kept), clients repriced, and the non-flipped
// reprices (repriced - recomputed) answered by the three-term certificate
// instead of the O(|Q|) loop.
const obs::Counter c_de_repriced =
    obs::counter("core.delta_eval.closest_clients_repriced");
const obs::Counter c_de_interval_keeps =
    obs::counter("core.delta_eval.closest_interval_keeps");
const obs::Counter c_de_certified =
    obs::counter("core.delta_eval.closest_reprice_certified");
const obs::Counter c_de_apply = obs::counter("core.delta_eval.apply_moves");
const obs::Counter c_de_rebuilds =
    obs::counter("core.delta_eval.apply_rebuilds");

constexpr std::size_t kEnumerationLimit = 50'000;

/// Relative slack of the reprice certificate. A term t = d + alpha * L whose
/// site load moves by delta >= 0 is recomputed as fl(d + fl(alpha * fl(L +
/// delta))), at most (t + alpha * delta)(1 + 6u) with u = 2^-53; 1e-12 covers
/// that and the rounding of the certificate's own sum with a wide margin.
/// (delta <= 0 cannot raise a term at all: rounding is monotone.)
constexpr double kCertSlack = 1e-12;

/// Value at (0-based) rank `r` of the ascending row `y` (length n) after
/// removing one copy of `removed` (which must be present) and inserting
/// `inserted` — the patched order statistic, in O(log n) without touching
/// the row.
double patched_sorted_rank(const double* y, std::size_t n, double removed, double inserted,
                           std::size_t r) {
  const double* end = y + n;
  const std::size_t p = static_cast<std::size_t>(std::lower_bound(y, end, removed) - y);
  std::size_t i = static_cast<std::size_t>(std::lower_bound(y, end, inserted) - y);
  if (p < i) --i;  // The removed copy sits below the insertion point.
  const auto without = [&](std::size_t j) { return y[j >= p ? j + 1 : j]; };
  if (r < i) return without(r);
  if (r == i) return inserted;
  return without(r - 1);
}

/// Visits the elements of Grid quorum (row r, column c) in ascending element
/// order — the order charge_quorum sees from a sorted Quorum, so load
/// accumulation matches site_loads_closest bitwise.
template <typename Fn>
void for_each_grid_element(std::size_t k, std::size_t r, std::size_t c, Fn&& fn) {
  for (std::size_t rr = 0; rr < k; ++rr) {
    if (rr == r) {
      for (std::size_t cc = 0; cc < k; ++cc) fn(r * k + cc);
    } else {
      fn(rr * k + c);
    }
  }
}

}  // namespace

DeltaEvaluator::DeltaEvaluator(const net::LatencySpace& space,
                               const quorum::QuorumSystem& system,
                               const Placement& placement, const Objective& objective)
    : space_(&space),
      matrix_(space.as_matrix()),
      system_(&system),
      objective_(&objective),
      placement_(placement),
      mode_(Mode::Recompute) {
  placement_.validate(space.size());
  if (!objective.supports_delta()) {
    throw std::invalid_argument{
        "DeltaEvaluator: objective does not support incremental evaluation "
        "(use LocalSearchEngine::Naive / full re-evaluation)"};
  }
  clients_ = space.size();
  n_ = placement_.universe_size();
  if (n_ != system.universe_size()) {
    throw std::invalid_argument{"DeltaEvaluator: placement size != universe size"};
  }
  alpha_ = objective.alpha();
  client_weight_ = objective.client_weights();
  if (!client_weight_.empty() && client_weight_.size() != clients_) {
    throw std::invalid_argument{"DeltaEvaluator: client weight count != clients"};
  }
  if (objective.access_strategy() == AccessStrategy::Closest) {
    closest_ = true;
    if (const auto* grid = dynamic_cast<const quorum::GridQuorum*>(&system)) {
      mode_ = Mode::ClosestGrid;
      side_ = grid->side();
    } else if (const auto* majority =
                   dynamic_cast<const quorum::MajorityQuorum*>(&system)) {
      mode_ = Mode::ClosestMajority;
      majority_q_ = majority->quorum_size();
    } else if (system.enumerable(kEnumerationLimit)) {
      mode_ = Mode::ClosestEnumerated;
    } else {
      throw std::invalid_argument{
          "DeltaEvaluator: closest-strategy objective requires a Grid, Majority, "
          "or enumerable quorum system"};
    }
    rebuild();
    return;
  }
  lambda_ = objective.element_loads(system);
  load_aware_ = alpha_ != 0.0 && !lambda_.empty();
  if (load_aware_ && lambda_.size() != n_) {
    throw std::logic_error{"DeltaEvaluator: element_loads size mismatch"};
  }
  weights_ = system.order_stat_weights();
  if (!weights_.empty()) {
    if (weights_.size() != n_) {
      throw std::logic_error{"DeltaEvaluator: order_stat_weights size mismatch"};
    }
    mode_ = Mode::SortedWeights;
  } else if (const auto* grid = dynamic_cast<const quorum::GridQuorum*>(&system)) {
    mode_ = Mode::Grid;
    side_ = grid->side();
  } else if (system.enumerable(kEnumerationLimit)) {
    mode_ = Mode::Enumerated;
    quorums_ = system.enumerate_quorums(kEnumerationLimit);
    incident_.assign(n_, {});
    for (std::size_t l = 0; l < quorums_.size(); ++l) {
      for (std::size_t u : quorums_[l]) incident_[u].push_back(l);
    }
  }
  rebuild();
}

DeltaEvaluator::DeltaEvaluator(const net::LatencySpace& space,
                               const quorum::QuorumSystem& system,
                               const Placement& placement)
    : DeltaEvaluator(space, system, placement, network_delay_objective()) {}

double DeltaEvaluator::objective() const noexcept {
  return client_weight_.empty() ? base_total_ / static_cast<double>(clients_)
                                : base_total_;
}

double DeltaEvaluator::charge_weight(std::size_t v) const noexcept {
  return client_weight_.empty() ? 1.0 / static_cast<double>(clients_) : client_weight_[v];
}

void DeltaEvaluator::gather_values(std::size_t v, double* out) const {
  space_->fill_rtts(v, placement_.site_of.data(), n_, out);
  if (!load_aware_) return;
  for (std::size_t u = 0; u < n_; ++u) {
    out[u] += site_term_[placement_.site_of[u]];
  }
}

void DeltaEvaluator::rebuild_sorted_client(std::size_t v) {
  const double* w = weights_.data();
  const double* y = sorted_.data() + v * n_;
  double expectation = 0.0;
  for (std::size_t i = 0; i < n_; ++i) expectation += y[i] * w[i];
  client_sum_[v] = expectation;
  // A[j] = sum_{i<j} y[i] (w[i+1] - w[i]) — the expectation change when
  // the j smallest values all shift one rank up (an insertion below
  // them); B[j] = sum_{1<=i<j} y[i] (w[i-1] - w[i]) — one rank down.
  double* a = shift_up_.data() + v * n_;
  double* b = shift_down_.data() + v * (n_ + 1);
  a[0] = 0.0;
  for (std::size_t j = 1; j < n_; ++j) a[j] = a[j - 1] + y[j - 1] * (w[j] - w[j - 1]);
  b[0] = 0.0;
  if (n_ >= 1) b[1] = 0.0;
  for (std::size_t j = 2; j <= n_; ++j) {
    b[j] = b[j - 1] + y[j - 1] * (w[j - 2] - w[j - 1]);
  }
}

void DeltaEvaluator::repair_grid_client_tables(std::size_t v, std::size_t r0,
                                               std::size_t c0) {
  const std::size_t k = side_;
  const double neg_inf = -std::numeric_limits<double>::infinity();
  const double* vals = values_.data() + v * n_;
  double* rm = row_max_.data() + v * k;
  double* cm = col_max_.data() + v * k;
  double m = neg_inf;
  for (std::size_t c = 0; c < k; ++c) m = std::max(m, vals[r0 * k + c]);
  rm[r0] = m;
  m = neg_inf;
  for (std::size_t r = 0; r < k; ++r) m = std::max(m, vals[r * k + c0]);
  cm[c0] = m;
  // Only row r0's row-exclusions and column c0's column-exclusions depend
  // on the changed cell.
  double* rex = row_excl_.data() + v * n_;
  double* cex = col_excl_.data() + v * n_;
  for (std::size_t c = 0; c < k; ++c) {
    double without = neg_inf;
    for (std::size_t o = 0; o < k; ++o) {
      if (o != c) without = std::max(without, vals[r0 * k + o]);
    }
    rex[r0 * k + c] = without;
  }
  for (std::size_t r = 0; r < k; ++r) {
    double without = neg_inf;
    for (std::size_t o = 0; o < k; ++o) {
      if (o != r) without = std::max(without, vals[o * k + c0]);
    }
    cex[r * k + c0] = without;
  }
}

void DeltaEvaluator::rebuild_grid_client_sums(std::size_t v) {
  const std::size_t k = side_;
  const double* rm = row_max_.data() + v * k;
  const double* cm = col_max_.data() + v * k;
  double* rqs = row_quorum_sum_.data() + v * k;
  double* cqs = col_quorum_sum_.data() + v * k;
  std::fill(rqs, rqs + k, 0.0);
  std::fill(cqs, cqs + k, 0.0);
  double sum = 0.0;
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      const double quorum_max = std::max(rm[r], cm[c]);
      rqs[r] += quorum_max;
      cqs[c] += quorum_max;
      sum += quorum_max;
    }
  }
  client_sum_[v] = sum;
}

void DeltaEvaluator::rebuild() {
  if (closest_) {
    rebuild_closest();
    return;
  }
  if (load_aware_) {
    // Per-site load tables, recomputed from scratch so drift cannot
    // accumulate across moves.
    site_load_.assign(clients_, 0.0);
    hosted_count_.assign(clients_, 0);
    for (std::size_t u = 0; u < n_; ++u) {
      site_load_[placement_.site_of[u]] += lambda_[u];
      ++hosted_count_[placement_.site_of[u]];
    }
    site_term_.resize(clients_);
    for (std::size_t w = 0; w < site_term_.size(); ++w) {
      site_term_[w] = alpha_ * site_load_[w];
    }
  }
  client_sum_.resize(clients_);
  base_total_ = 0.0;
  switch (mode_) {
    case Mode::SortedWeights: {
      sorted_.resize(clients_ * n_);
      shift_up_.resize(clients_ * n_);
      shift_down_.resize(clients_ * (n_ + 1));
      for (std::size_t v = 0; v < clients_; ++v) {
        double* y = sorted_.data() + v * n_;
        gather_values(v, y);
        std::sort(y, y + n_);
        rebuild_sorted_client(v);
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * client_sum_[v];
      }
      break;
    }
    case Mode::Grid: {
      const std::size_t k = side_;
      const double neg_inf = -std::numeric_limits<double>::infinity();
      values_.resize(clients_ * n_);
      row_max_.resize(clients_ * k);
      col_max_.resize(clients_ * k);
      row_excl_.resize(clients_ * n_);
      col_excl_.resize(clients_ * n_);
      row_quorum_sum_.resize(clients_ * k);
      col_quorum_sum_.resize(clients_ * k);
      for (std::size_t v = 0; v < clients_; ++v) {
        double* vals = values_.data() + v * n_;
        gather_values(v, vals);
        double* rm = row_max_.data() + v * k;
        double* cm = col_max_.data() + v * k;
        std::fill(rm, rm + k, neg_inf);
        std::fill(cm, cm + k, neg_inf);
        for (std::size_t r = 0; r < k; ++r) {
          for (std::size_t c = 0; c < k; ++c) {
            const double x = vals[r * k + c];
            rm[r] = std::max(rm[r], x);
            cm[c] = std::max(cm[c], x);
          }
        }
        // row_excl[(r, c)] = max of row r without column c (so the new row
        // maximum after placing `val` at (r, c) is max(row_excl, val) with
        // no branch); col_excl is the transpose analogue.
        double* rex = row_excl_.data() + v * n_;
        double* cex = col_excl_.data() + v * n_;
        for (std::size_t r = 0; r < k; ++r) {
          for (std::size_t c = 0; c < k; ++c) {
            double without = neg_inf;
            for (std::size_t o = 0; o < k; ++o) {
              if (o != c) without = std::max(without, vals[r * k + o]);
            }
            rex[r * k + c] = without;
            without = neg_inf;
            for (std::size_t o = 0; o < k; ++o) {
              if (o != r) without = std::max(without, vals[o * k + c]);
            }
            cex[r * k + c] = without;
          }
        }
        rebuild_grid_client_sums(v);
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
                       (client_sum_[v] / static_cast<double>(n_));
      }
      break;
    }
    case Mode::Enumerated: {
      const std::size_t count = quorums_.size();
      values_.resize(clients_ * n_);
      quorum_max_.resize(clients_ * count);
      for (std::size_t v = 0; v < clients_; ++v) {
        double* vals = values_.data() + v * n_;
        gather_values(v, vals);
        double* qmax = quorum_max_.data() + v * count;
        double sum = 0.0;
        for (std::size_t l = 0; l < count; ++l) {
          double worst = -std::numeric_limits<double>::infinity();
          for (std::size_t u : quorums_[l]) worst = std::max(worst, vals[u]);
          qmax[l] = worst;
          sum += worst;
        }
        client_sum_[v] = sum;
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
                       (sum / static_cast<double>(count));
      }
      break;
    }
    case Mode::Recompute: {
      values_.resize(clients_ * n_);
      std::vector<double> scratch;
      for (std::size_t v = 0; v < clients_; ++v) {
        double* vals = values_.data() + v * n_;
        gather_values(v, vals);
        const double expectation = system_->expected_max_uniform_scratch(
            std::span<const double>{vals, n_}, scratch);
        client_sum_[v] = expectation;
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * expectation;
      }
      break;
    }
    default:
      break;  // Closest modes handled above.
  }
}

void DeltaEvaluator::repair_single(std::size_t element, std::size_t site,
                                   std::size_t old_site, double old_add, double new_add) {
  base_total_ = 0.0;
  switch (mode_) {
    case Mode::SortedWeights: {
      for (std::size_t v = 0; v < clients_; ++v) {
        const double old_value = site_rtt(v, old_site) + old_add;
        const double new_value = site_rtt(v, site) + new_add;
        double* y = sorted_.data() + v * n_;
        double* end = y + n_;
        // Remove the (bit-exact) old value, insert the new one: the row's
        // contents match a from-scratch sort of the updated multiset.
        double* p = std::lower_bound(y, end, old_value);
        QP_CHECK(p != end && *p == old_value,
                 "SortedWeights repair: the bit-exact old value vanished from the "
                 "sorted row (placement and tables out of sync)");
        std::copy(p + 1, end, p);
        double* ins = std::lower_bound(y, end - 1, new_value);
        std::copy_backward(ins, end - 1, end);
        *ins = new_value;
        rebuild_sorted_client(v);
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * client_sum_[v];
      }
      break;
    }
    case Mode::Grid: {
      const std::size_t k = side_;
      const std::size_t r0 = element / k;
      const std::size_t c0 = element % k;
      for (std::size_t v = 0; v < clients_; ++v) {
        values_[v * n_ + element] = site_rtt(v, site) + new_add;
        repair_grid_client_tables(v, r0, c0);
        rebuild_grid_client_sums(v);
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
                       (client_sum_[v] / static_cast<double>(n_));
      }
      break;
    }
    case Mode::Enumerated: {
      const std::size_t count = quorums_.size();
      for (std::size_t v = 0; v < clients_; ++v) {
        double* vals = values_.data() + v * n_;
        vals[element] = site_rtt(v, site) + new_add;
        double* qmax = quorum_max_.data() + v * count;
        for (std::size_t l : incident_[element]) {
          double worst = -std::numeric_limits<double>::infinity();
          for (std::size_t u : quorums_[l]) worst = std::max(worst, vals[u]);
          qmax[l] = worst;
        }
        double sum = 0.0;
        for (std::size_t l = 0; l < count; ++l) sum += qmax[l];
        client_sum_[v] = sum;
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
                       (sum / static_cast<double>(count));
      }
      break;
    }
    case Mode::Recompute: {
      std::vector<double> scratch;
      for (std::size_t v = 0; v < clients_; ++v) {
        double* vals = values_.data() + v * n_;
        vals[element] = site_rtt(v, site) + new_add;
        const double expectation = system_->expected_max_uniform_scratch(
            std::span<const double>{vals, n_}, scratch);
        client_sum_[v] = expectation;
        base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * expectation;
      }
      break;
    }
    default:
      break;  // Closest modes never reach the balanced repair.
  }
}

double DeltaEvaluator::client_delta_sorted(std::size_t client, double old_value,
                                           double new_value) const {
  const double* y = sorted_.data() + client * n_;
  const double* a = shift_up_.data() + client * n_;
  const double* b = shift_down_.data() + client * (n_ + 1);
  const double* w = weights_.data();
  if (new_value < old_value) {
    // Remove the first occurrence of old_value at p, insert at ins <= p: the
    // values in [ins, p) shift one rank up.
    const std::size_t p =
        static_cast<std::size_t>(std::lower_bound(y, y + n_, old_value) - y);
    const std::size_t ins =
        static_cast<std::size_t>(std::lower_bound(y, y + p, new_value) - y);
    return new_value * w[ins] - old_value * w[p] + (a[p] - a[ins]);
  }
  if (new_value > old_value) {
    // Remove the last occurrence of old_value at p, insert at q >= p: the
    // values in (p, q] shift one rank down.
    const std::size_t p =
        static_cast<std::size_t>(std::upper_bound(y, y + n_, old_value) - y) - 1;
    const std::size_t q =
        static_cast<std::size_t>(std::upper_bound(y + p, y + n_, new_value) - y) - 1;
    return new_value * w[q] - old_value * w[p] + (b[q + 1] - b[p + 1]);
  }
  return 0.0;
}

double DeltaEvaluator::objective_if_moved_general(std::size_t element,
                                                  std::size_t site) const {
  // The move colocates or separates elements, shifting load_f at both
  // endpoint sites and hence the value of every element they host: patch a
  // full per-client value vector against the post-move load terms. Thread-
  // local buffers keep the const method allocation-free in steady state AND
  // safe under a parallel neighborhood scan.
  const std::size_t old_site = placement_.site_of[element];
  static thread_local std::vector<double> tl_term;
  static thread_local std::vector<std::size_t> tl_sites;
  static thread_local std::vector<double> tl_values;
  static thread_local std::vector<double> tl_scratch;
  tl_term.assign(site_term_.begin(), site_term_.end());
  tl_term[old_site] = alpha_ * (site_load_[old_site] - lambda_[element]);
  tl_term[site] = alpha_ * (site_load_[site] + lambda_[element]);
  tl_sites.assign(placement_.site_of.begin(), placement_.site_of.end());
  tl_sites[element] = site;
  tl_values.resize(n_);
  double total = 0.0;
  for (std::size_t v = 0; v < clients_; ++v) {
    space_->fill_rtts(v, tl_sites.data(), n_, tl_values.data());
    for (std::size_t u = 0; u < n_; ++u) tl_values[u] += tl_term[tl_sites[u]];
    const double expectation = system_->expected_max_uniform_scratch(tl_values, tl_scratch);
    total += (client_weight_.empty() ? 1.0 : client_weight_[v]) * expectation;
  }
  return client_weight_.empty() ? total / static_cast<double>(clients_) : total;
}

double DeltaEvaluator::objective_if_moved(std::size_t element, std::size_t site) const {
  QP_CHECK(element < n_, "objective_if_moved: element out of range");
  QP_CHECK(site < clients_, "objective_if_moved: site out of range");
  const std::size_t old_site = placement_.site_of[element];
  if (site == old_site) return objective();
  c_de_candidates.add();
  if (closest_) return closest_if_moved_indexed(element, site, candidate_index_ == nullptr);
  // Per-coordinate additive load terms of the candidate values. The cached
  // tables answer single-coordinate moves only; a load-aware move touching a
  // co-hosted site perturbs other coordinates too and takes the general path.
  double old_add = 0.0;
  double new_add = 0.0;
  if (load_aware_) {
    if (hosted_count_[old_site] != 1 || hosted_count_[site] != 0) {
      c_de_general.add();
      return objective_if_moved_general(element, site);
    }
    old_add = site_term_[old_site];
    new_add = alpha_ * (site_load_[site] + lambda_[element]);
  }
  c_de_fast.add();
  double total = 0.0;
  switch (mode_) {
    case Mode::SortedWeights: {
      for (std::size_t v = 0; v < clients_; ++v) {
        const double term =
            client_sum_[v] + client_delta_sorted(v, site_rtt(v, old_site) + old_add,
                                                 site_rtt(v, site) + new_add);
        total += (client_weight_.empty() ? 1.0 : client_weight_[v]) * term;
      }
      break;
    }
    case Mode::Grid: {
      const std::size_t k = side_;
      const std::size_t r0 = element / k;
      const std::size_t c0 = element % k;
      for (std::size_t v = 0; v < clients_; ++v) {
        const double val = site_rtt(v, site) + new_add;
        const double* rm = row_max_.data() + v * k;
        const double* cm = col_max_.data() + v * k;
        const double new_row = std::max(row_excl_[v * n_ + element], val);
        const double new_col = std::max(col_excl_[v * n_ + element], val);
        // Only quorum maxima in row r0 or column c0 change. New row-r0 part:
        // sum_c max(new_row, cm'[c]) with cm'[c0] = new_col, via a branch-free
        // (vectorized) full-row reduction corrected at c0; old part is the
        // cached sum.
        const double row_part = std::max(new_row, new_col) - std::max(new_row, cm[c0]) +
                                common::max_with_bound_sum(new_row, {cm, k});
        // New column-c0 part excluding the shared (r0, c0) cell; old part is
        // the cached column sum minus that cell.
        const double col_part = common::max_with_bound_sum(new_col, {rm, k}) -
                                std::max(rm[r0], new_col);
        const double old_col_part =
            col_quorum_sum_[v * k + c0] - std::max(rm[r0], cm[c0]);
        const double delta =
            (row_part - row_quorum_sum_[v * k + r0]) + (col_part - old_col_part);
        total += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
                 ((client_sum_[v] + delta) / static_cast<double>(n_));
      }
      break;
    }
    case Mode::Enumerated: {
      const std::size_t count = quorums_.size();
      for (std::size_t v = 0; v < clients_; ++v) {
        const double val = site_rtt(v, site) + new_add;
        const double* vals = values_.data() + v * n_;
        const double* qmax = quorum_max_.data() + v * count;
        double delta = 0.0;
        for (std::size_t l : incident_[element]) {
          double worst = -std::numeric_limits<double>::infinity();
          for (std::size_t u : quorums_[l]) {
            worst = std::max(worst, u == element ? val : vals[u]);
          }
          delta += worst - qmax[l];
        }
        total += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
                 ((client_sum_[v] + delta) / static_cast<double>(count));
      }
      break;
    }
    case Mode::Recompute: {
      // Thread-local buffers keep the const method allocation-free in steady
      // state AND safe under a parallel neighborhood scan.
      static thread_local std::vector<double> tl_values;
      static thread_local std::vector<double> tl_scratch;
      for (std::size_t v = 0; v < clients_; ++v) {
        const double* vals = values_.data() + v * n_;
        tl_values.assign(vals, vals + n_);
        tl_values[element] = site_rtt(v, site) + new_add;
        const double expectation =
            system_->expected_max_uniform_scratch(tl_values, tl_scratch);
        total += (client_weight_.empty() ? 1.0 : client_weight_[v]) * expectation;
      }
      break;
    }
    default:
      break;  // Closest modes dispatched above.
  }
  return client_weight_.empty() ? total / static_cast<double>(clients_) : total;
}

// ---------------------------------------------------------------- Closest.

void DeltaEvaluator::majority_chosen_patched(std::size_t v, std::size_t element,
                                             double patched,
                                             std::vector<std::size_t>& out) const {
  // Replicates MajorityQuorum::best_quorum exactly: the q smallest elements
  // by (value, index). The threshold t is the q-th smallest patched value;
  // everything strictly below t is chosen, ties at t fill the remaining
  // quota in ascending element order.
  const double* vals = values_.data() + v * n_;
  const double* y = sorted_.data() + v * n_;
  const double d_old = vals[element];
  const double t = patched_sorted_rank(y, n_, d_old, patched, majority_q_ - 1);
  std::size_t less = 0;
  for (std::size_t u = 0; u < n_; ++u) {
    const double x = u == element ? patched : vals[u];
    if (x < t) ++less;
  }
  std::size_t quota = majority_q_ - less;
  [[maybe_unused]] const std::size_t begin = out.size();
  for (std::size_t u = 0; u < n_; ++u) {
    const double x = u == element ? patched : vals[u];
    if (x < t) {
      out.push_back(u);
    } else if (x == t && quota > 0) {
      out.push_back(u);
      --quota;
    }
  }
#if QP_PARITY_AUDIT_ENABLED
  const quorum::Quorum best = best_quorum_patched(v, element, patched);
  QP_CHECK(std::equal(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end(),
                      best.begin(), best.end()),
           "majority_chosen_patched: the re-chosen quorum is not best_quorum's");
#endif
}

quorum::Quorum DeltaEvaluator::best_quorum_patched(std::size_t v, std::size_t element,
                                                   double d) const {
  std::vector<double> row(values_.begin() + static_cast<std::ptrdiff_t>(v * n_),
                          values_.begin() + static_cast<std::ptrdiff_t>((v + 1) * n_));
  row[element] = d;
  return system_->best_quorum(row);
}

void DeltaEvaluator::rebuild_closest() {
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t k = side_;
  values_.resize(clients_ * n_);
  best_value_.resize(clients_);
  client_sum_.resize(clients_);
  price_cert_.resize(clients_);
  chosen_quorum_.assign(clients_, {});
  hosted_count_.assign(clients_, 0);
  for (std::size_t u = 0; u < n_; ++u) ++hosted_count_[placement_.site_of[u]];
  if (mode_ == Mode::ClosestMajority) {
    sorted_.resize(clients_ * n_);
    second_value_.resize(clients_);
    in_best_.assign(clients_ * n_, 0);
  } else if (mode_ == Mode::ClosestGrid) {
    row_max_.resize(clients_ * k);
    col_max_.resize(clients_ * k);
    row_excl_.resize(clients_ * n_);
    col_excl_.resize(clients_ * n_);
    chosen_row_.resize(clients_);
    chosen_col_.resize(clients_);
  } else {
    in_best_.assign(clients_ * n_, 0);
  }
  for (std::size_t v = 0; v < clients_; ++v) {
    double* vals = values_.data() + v * n_;
    space_->fill_rtts(v, placement_.site_of.data(), n_, vals);
    switch (mode_) {
      case Mode::ClosestMajority: {
        double* y = sorted_.data() + v * n_;
        std::copy(vals, vals + n_, y);
        std::sort(y, y + n_);
        best_value_[v] = y[majority_q_ - 1];
        second_value_[v] = majority_q_ < n_ ? y[majority_q_] : inf;
        // Chosen set = q smallest by (value, index): everything strictly
        // below the threshold, ties in ascending element order.
        quorum::Quorum& chosen = chosen_quorum_[v];
        chosen.clear();
        const double t = best_value_[v];
        std::size_t less = 0;
        for (std::size_t u = 0; u < n_; ++u) less += vals[u] < t ? 1 : 0;
        std::size_t quota = majority_q_ - less;
        for (std::size_t u = 0; u < n_; ++u) {
          if (vals[u] < t) {
            chosen.push_back(u);
          } else if (vals[u] == t && quota > 0) {
            chosen.push_back(u);
            --quota;
          }
        }
        for (std::size_t e : chosen) in_best_[v * n_ + e] = 1;
        break;
      }
      case Mode::ClosestGrid: {
        const double neg_inf = -inf;
        double* rm = row_max_.data() + v * k;
        double* cm = col_max_.data() + v * k;
        std::fill(rm, rm + k, neg_inf);
        std::fill(cm, cm + k, neg_inf);
        for (std::size_t r = 0; r < k; ++r) {
          for (std::size_t c = 0; c < k; ++c) {
            const double x = vals[r * k + c];
            rm[r] = std::max(rm[r], x);
            cm[c] = std::max(cm[c], x);
          }
        }
        double* rex = row_excl_.data() + v * n_;
        double* cex = col_excl_.data() + v * n_;
        for (std::size_t r = 0; r < k; ++r) {
          for (std::size_t c = 0; c < k; ++c) {
            double without = neg_inf;
            for (std::size_t o = 0; o < k; ++o) {
              if (o != c) without = std::max(without, vals[r * k + o]);
            }
            rex[r * k + c] = without;
            without = neg_inf;
            for (std::size_t o = 0; o < k; ++o) {
              if (o != r) without = std::max(without, vals[o * k + c]);
            }
            cex[r * k + c] = without;
          }
        }
        // Flattened first-wins argmin over max(rm[r], cm[c]) — exactly
        // GridQuorum::best_quorum's scan.
        std::size_t best = 0;
        double best_max = inf;
        for (std::size_t r = 0; r < k; ++r) {
          for (std::size_t c = 0; c < k; ++c) {
            const double val = std::max(rm[r], cm[c]);
            if (val < best_max) {
              best_max = val;
              best = r * k + c;
            }
          }
        }
        chosen_row_[v] = best / k;
        chosen_col_[v] = best % k;
        best_value_[v] = best_max;
        quorum::Quorum& chosen = chosen_quorum_[v];
        chosen.clear();
        for_each_grid_element(k, chosen_row_[v], chosen_col_[v],
                              [&](std::size_t e) { chosen.push_back(e); });
        break;
      }
      default: {  // ClosestEnumerated
        chosen_quorum_[v] = system_->best_quorum(std::span<const double>{vals, n_});
        double worst = 0.0;
        for (std::size_t e : chosen_quorum_[v]) worst = std::max(worst, vals[e]);
        best_value_[v] = worst;
        for (std::size_t e : chosen_quorum_[v]) in_best_[v * n_ + e] = 1;
        break;
      }
    }
  }
  // Site -> charging clients from the chosen quorums, filled in ascending
  // client order: each site's list is sorted, with one entry per charging
  // element, and is exactly the order reaccumulate_closest_dirty re-sums a
  // site's load in — so a rebuilt and a repaired evaluator agree bitwise.
  charge_lists_.assign(clients_, {});
  for (std::size_t v = 0; v < clients_; ++v) {
    for (std::size_t e : chosen_quorum_[v]) charge_lists_[placement_.site_of[e]].push_back(v);
  }
  closest_load_.assign(clients_, 0.0);
  for (std::size_t s = 0; s < clients_; ++s) {
    for (std::size_t v : charge_lists_[s]) closest_load_[s] += charge_weight(v);
  }
  base_total_ = 0.0;
  for (std::size_t v = 0; v < clients_; ++v) {
    price_closest_client(v);
    base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * client_sum_[v];
  }
  refresh_candidate_tables();
}

void DeltaEvaluator::price_closest_client(std::size_t v) {
  // The chosen quorum's response and its certificate in one pass: `first`
  // and `second` track the two largest terms (ties fill the lower slot), so
  // every term of an element outside {first, second} is <= third.
  const double neg_inf = -std::numeric_limits<double>::infinity();
  const double* vals = values_.data() + v * n_;
  PriceCert cert{n_, n_, neg_inf, 0.0, 0.0};
  double first = neg_inf;
  double second = neg_inf;
  double worst = 0.0;
  for (std::size_t e : chosen_quorum_[v]) {
    const double term = vals[e] + alpha_ * closest_load_[placement_.site_of[e]];
    worst = std::max(worst, term);
    if (term > first) {
      cert.third = second;
      second = first;
      cert.second = cert.first;
      cert.second_d = cert.first_d;
      first = term;
      cert.first = e;
      cert.first_d = vals[e];
    } else if (term > second) {
      cert.third = second;
      second = term;
      cert.second = e;
      cert.second_d = vals[e];
    } else if (term > cert.third) {
      cert.third = term;
    }
  }
  client_sum_[v] = worst;
  price_cert_[v] = cert;
}

void DeltaEvaluator::apply_move_closest(std::size_t element, std::size_t site) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t k = side_;
  const std::size_t r0 = mode_ == Mode::ClosestGrid ? element / k : 0;
  const std::size_t c0 = mode_ == Mode::ClosestGrid ? element % k : 0;
  std::vector<std::size_t> scratch_ids;
  // Record the clients whose charge set moves (flipped choice, or chosen
  // quorum contains the moved element) so the reaccumulation below stays
  // bounded instead of O(clients x |Q|).
  std::vector<std::size_t> touched_clients;
  std::vector<std::pair<std::size_t, std::size_t>> new_charges;  // (site, v).
  std::vector<std::size_t> affected_sites;
  for (std::size_t v = 0; v < clients_; ++v) {
    double* vals = values_.data() + v * n_;
    const double d_old = vals[element];
    const double d_new = site_rtt(v, site);
    const bool contains_u = mode_ == Mode::ClosestGrid
                                ? (chosen_row_[v] == r0 || chosen_col_[v] == c0)
                                : in_best_[v * n_ + element] != 0;
    const bool keep = !contains_u && d_new > best_value_[v];
    const bool keep_moved =
        mode_ == Mode::ClosestMajority && contains_u &&
        (majority_q_ == n_ || d_new < second_value_[v]);
    const bool flip = !keep && !keep_moved;
    if (flip || contains_u) {
      // Old charges, under the pre-move placement and pre-repair choice.
      touched_clients.push_back(v);
      for (std::size_t e : chosen_quorum_[v]) {
        affected_sites.push_back(placement_.site_of[e]);
      }
    }
    // The re-choice reads the pre-repair tables with the moved element
    // patched — the same routines the candidate evaluation runs.
    std::size_t cell = 0;
    if (flip && mode_ == Mode::ClosestMajority) {
      scratch_ids.clear();
      majority_chosen_patched(v, element, d_new, scratch_ids);
    } else if (flip && mode_ == Mode::ClosestGrid) {
      cell = grid_argmin_patched(v, element, d_new);
    }
    vals[element] = d_new;
    switch (mode_) {
      case Mode::ClosestMajority: {
        double* y = sorted_.data() + v * n_;
        double* end = y + n_;
        double* p = std::lower_bound(y, end, d_old);
        QP_CHECK(p != end && *p == d_old,
                 "ClosestMajority repair: the bit-exact old value vanished from the "
                 "sorted row (placement and tables out of sync)");
        std::copy(p + 1, end, p);
        double* ins = std::lower_bound(y, end - 1, d_new);
        std::copy_backward(ins, end - 1, end);
        *ins = d_new;
        best_value_[v] = y[majority_q_ - 1];
        second_value_[v] = majority_q_ < n_ ? y[majority_q_] : inf;
        if (flip) {
          for (std::size_t e : chosen_quorum_[v]) in_best_[v * n_ + e] = 0;
          chosen_quorum_[v].assign(scratch_ids.begin(), scratch_ids.end());
          for (std::size_t e : chosen_quorum_[v]) in_best_[v * n_ + e] = 1;
        }
        break;
      }
      case Mode::ClosestGrid: {
        repair_grid_client_tables(v, r0, c0);
        if (flip) {
          chosen_row_[v] = cell / k;
          chosen_col_[v] = cell % k;
          best_value_[v] =
              std::max(row_max_[v * k + chosen_row_[v]], col_max_[v * k + chosen_col_[v]]);
          quorum::Quorum& chosen = chosen_quorum_[v];
          chosen.clear();
          for_each_grid_element(k, chosen_row_[v], chosen_col_[v],
                                [&](std::size_t e) { chosen.push_back(e); });
        }
        break;
      }
      default: {  // ClosestEnumerated
        if (flip) {
          for (std::size_t e : chosen_quorum_[v]) in_best_[v * n_ + e] = 0;
          chosen_quorum_[v] = system_->best_quorum(std::span<const double>{vals, n_});
          double worst = 0.0;
          for (std::size_t e : chosen_quorum_[v]) worst = std::max(worst, vals[e]);
          best_value_[v] = worst;
          for (std::size_t e : chosen_quorum_[v]) in_best_[v * n_ + e] = 1;
        }
        break;
      }
    }
    if (flip || contains_u) {
      // New charges, under the post-move placement and repaired choice.
      for (std::size_t e : chosen_quorum_[v]) {
        const std::size_t s = e == element ? site : placement_.site_of[e];
        new_charges.emplace_back(s, v);
        affected_sites.push_back(s);
      }
    }
  }
  --hosted_count_[placement_.site_of[element]];
  ++hosted_count_[site];
  placement_.site_of[element] = site;
  reaccumulate_closest_dirty(touched_clients, new_charges, affected_sites);
}

void DeltaEvaluator::attach_candidate_index(const ClientCandidateIndex* index) {
  if (index != nullptr && !closest_) {
    throw std::invalid_argument{
        "DeltaEvaluator: candidate indexes apply to closest-strategy objectives only"};
  }
  if (index != nullptr && index->size() != clients_) {
    throw std::invalid_argument{"DeltaEvaluator: candidate index size != site count"};
  }
  // The charge lists and keep intervals do not depend on the index; only
  // the coverage-overflow set does.
  candidate_index_ = index;
  refresh_overflow_clients();
}

void DeltaEvaluator::refresh_overflow_clients() {
  // Clients whose m1 outgrew their list's covered radius fall back to being
  // classified on every candidate — that keeps uncapped evaluation exact as
  // the placement drifts away from the radii the lists were built with.
  // Capped indexes are openly approximate and skip the fallback (every
  // far client would overflow, degenerating to the index-free scan).
  overflow_clients_.clear();
  if (candidate_index_ == nullptr || candidate_index_->capped()) return;
  for (std::size_t v = 0; v < clients_; ++v) {
    if (best_value_[v] > candidate_index_->covered_radius(v)) overflow_clients_.push_back(v);
  }
}

void DeltaEvaluator::refresh_candidate_tables() {
  refresh_overflow_clients();
  if (mode_ != Mode::ClosestGrid) return;
  // Every entry's interval depends on the client's whole distance row, and
  // a move changes one coordinate of every row — so all entries refresh,
  // client by client in O(k) per client. Slots of sites hosting several
  // elements are skipped and never read: their chargers may charge through
  // an element other than the moved one.
  keep_offset_.resize(clients_ + 1);
  keep_offset_[0] = 0;
  for (std::size_t s = 0; s < clients_; ++s) {
    keep_offset_[s + 1] = keep_offset_[s] + charge_lists_[s].size();
  }
  keep_interval_.resize(keep_offset_[clients_]);
  // A singly-hosted site's list holds each of its chargers once, ascending,
  // so a per-site cursor walks to the client's slot.
  std::vector<std::size_t> cursor(keep_offset_.begin(), keep_offset_.end() - 1);
  std::vector<KeepInterval> client_keep;
  for (std::size_t v = 0; v < clients_; ++v) {
    const quorum::Quorum& chosen = chosen_quorum_[v];
    client_keep.resize(chosen.size());
    grid_keep_intervals(v, client_keep.data());
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const std::size_t u = chosen[i];
      const std::size_t s = placement_.site_of[u];
      if (hosted_count_[s] != 1) continue;
      QP_CHECK(charge_lists_[s][cursor[s] - keep_offset_[s]] == v,
               "refresh_candidate_tables: charge list out of sync with the chosen quorums");
      QP_CHECK(client_keep[i].lo <= values_[v * n_ + u] &&
                   values_[v * n_ + u] <= client_keep[i].hi,
               "grid_keep_intervals: the current distance lies outside its own keep "
               "interval (choice tables out of sync)");
      keep_interval_[cursor[s]++] = client_keep[i];
    }
  }
}

std::size_t DeltaEvaluator::grid_argmin_patched(std::size_t v, std::size_t element,
                                                double d) const {
  // cell(r, c) = max(row'[r], col'[c]), so each row's minimum is
  // max(row'[r], min_c col'[c]), and the strict-< scan's winner is the
  // first cell (row-major) attaining the global minimum — the first row
  // whose minimum attains it, then the first column attaining it within
  // that row. Pure selection (no arithmetic), so the winner is bitwise the
  // k*k scan's (GridQuorum::best_quorum, audited at level 2).
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t k = side_;
  const std::size_t r0 = element / k;
  const std::size_t c0 = element % k;
  const double* rm = row_max_.data() + v * k;
  const double* cm = col_max_.data() + v * k;
  const double nr = std::max(row_excl_[v * n_ + element], d);
  const double nc = std::max(col_excl_[v * n_ + element], d);
  double col_min = inf;
  for (std::size_t c = 0; c < k; ++c) col_min = std::min(col_min, c == c0 ? nc : cm[c]);
  double best_max = inf;
  std::size_t best_r = 0;
  for (std::size_t r = 0; r < k; ++r) {
    const double val = std::max(r == r0 ? nr : rm[r], col_min);
    if (val < best_max) {
      best_max = val;
      best_r = r;
    }
  }
  const double rr = best_r == r0 ? nr : rm[best_r];
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < k; ++c) {
    if (std::max(rr, c == c0 ? nc : cm[c]) == best_max) {
      best_c = c;
      break;
    }
  }
#if QP_PARITY_AUDIT_ENABLED
  // A cell other than the client's current one is a re-choice: check it
  // against the definition. (Checking every call, including the far more
  // frequent "same cell" answers, would cost more than the search.)
  if (best_r != chosen_row_[v] || best_c != chosen_col_[v]) {
    quorum::Quorum chosen;
    for_each_grid_element(k, best_r, best_c, [&](std::size_t e) { chosen.push_back(e); });
    QP_CHECK(chosen == best_quorum_patched(v, element, d),
             "grid_argmin_patched: the re-chosen cell is not best_quorum's");
  }
#endif
  return best_r * k + best_c;
}

void DeltaEvaluator::grid_keep_intervals(std::size_t v, KeepInterval* out) const {
  // Patching element (r0, c0) to distance d makes row r0's maximum
  // max(rex, d) and column c0's max(cex, d); every other row and column
  // maximum is fixed. The chosen cell (rs, cs) lies in row r0 or column c0,
  // so it is worth max(a, d) for a constant a; a competitor cell is worth a
  // constant C (off row r0 and column c0) or max(b, d). The chosen cell
  // must beat every cell the row-major scan meets before it strictly and
  // tie-or-beat the later ones:
  //   before, C or max(b, d):  a < x and d < x      (x = C or b)
  //   later,  C:               a <= C and d <= C
  //   later,  max(b, d):       a <= b, or d >= a
  // Each is a single ray in d, and d < x is exactly d <= nextafter(x, -inf),
  // so the feasible set is one closed interval. Only the smallest x, C and
  // b of each kind matter, and max(y, z) is monotone, so the minima come
  // from the two smallest row / column maxima of a few index ranges
  // (excluding one index at most): O(k) per client, O(1) per element.
  // Pure selection — no rounding.
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t k = side_;
  const std::size_t rs = chosen_row_[v];
  const std::size_t cs = chosen_col_[v];
  const double* rm = row_max_.data() + v * k;
  const double* cm = col_max_.data() + v * k;
  struct Lowest2 {
    double first;
    std::size_t at;
    double second;
    [[nodiscard]] double without(std::size_t i) const { return i == at ? second : first; }
  };
  const auto lowest2 = [&](const double* x, std::size_t begin, std::size_t end) {
    Lowest2 low{inf, end, inf};
    for (std::size_t i = begin; i < end; ++i) {
      if (x[i] < low.first) {
        low.second = low.first;
        low.first = x[i];
        low.at = i;
      } else if (x[i] < low.second) {
        low.second = x[i];
      }
    }
    return low;
  };
  const Lowest2 above = lowest2(rm, 0, rs);     // Rows scanned before row rs.
  const Lowest2 below = lowest2(rm, rs + 1, k);  // Rows scanned after it.
  const Lowest2 cols = lowest2(cm, 0, k);
  const Lowest2 left = lowest2(cm, 0, cs);       // Row rs, before column cs.
  const Lowest2 right = lowest2(cm, cs + 1, k);  // Row rs, after it.
  const quorum::Quorum& chosen = chosen_quorum_[v];
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const std::size_t e = chosen[i];
    const std::size_t r0 = e / k;
    const std::size_t c0 = e % k;
    const double rex = row_excl_[v * n_ + e];
    const double cex = col_excl_[v * n_ + e];
    double a;
    double strict_min;  // x over the cells before the chosen one.
    double fixed_min;   // C over the later constant cells.
    double moving_min;  // b over the later row-r0 / column-c0 cells.
    if (r0 == rs) {
      // Constant cells are the other rows minus column c0; moving cells are
      // row rs (split around cs) and column c0 (split around rs).
      a = std::max(rex, c0 == cs ? cex : cm[cs]);
      const double cx = cols.without(c0);
      strict_min = std::min({std::max(above.first, cx), std::max(rex, left.without(c0)),
                             std::max(above.first, cex)});
      fixed_min = std::max(below.first, cx);
      moving_min = std::min(std::max(rex, right.without(c0)), std::max(below.first, cex));
      if (c0 != cs) {  // The element's own cell competes too.
        double& own = c0 < cs ? strict_min : moving_min;
        own = std::min(own, std::max(rex, cex));
      }
    } else {
      // c0 == cs. Constant cells are the other rows but r0 minus column cs,
      // including row rs (split around cs); moving cells are row r0 (wholly
      // before or after row rs) and column cs (split around rs).
      a = std::max(rm[rs], cex);
      const double cx = cols.without(cs);
      const double ra = r0 < rs ? above.without(r0) : above.first;
      const double rb = r0 > rs ? below.without(r0) : below.first;
      strict_min = std::min({std::max(ra, cx), std::max(rm[rs], left.first), std::max(ra, cex)});
      fixed_min = std::min(std::max(rb, cx), std::max(rm[rs], right.first));
      moving_min = std::max(rb, cex);
      double& row = r0 < rs ? strict_min : moving_min;
      row = std::min({row, std::max(rex, cx), std::max(rex, cex)});
    }
    if (a >= strict_min || a > fixed_min) {
      out[i] = {inf, -inf};  // Not the current argmin: tables out of sync.
      continue;
    }
    const double below_strict = strict_min == inf ? inf : std::nextafter(strict_min, -inf);
    out[i] = {a > moving_min ? a : -inf, std::min(below_strict, fixed_min)};
  }
}

void DeltaEvaluator::reaccumulate_closest_dirty(
    std::span<const std::size_t> touched_clients,
    std::vector<std::pair<std::size_t, std::size_t>>& new_charges,
    std::vector<std::size_t>& affected_sites) {
  std::sort(affected_sites.begin(), affected_sites.end());
  affected_sites.erase(std::unique(affected_sites.begin(), affected_sites.end()),
                       affected_sites.end());
  // Group the new charges by site; stable keeps the ascending client order
  // the apply loop appended them in, so merged lists stay client-sorted.
  std::stable_sort(new_charges.begin(), new_charges.end(),
                   [](const std::pair<std::size_t, std::size_t>& a,
                      const std::pair<std::size_t, std::size_t>& b) {
                     return a.first < b.first;
                   });

  if (dirty_client_.size() != clients_) {
    dirty_client_.assign(clients_, 0);
    reprice_client_.assign(clients_, 0);
  }
  for (std::size_t v : touched_clients) dirty_client_[v] = 1;

  // Per affected site: drop the touched clients' old entries from the charge
  // list, merge their new entries in, and re-sum the weighted load over the
  // merged list. The list is ascending with per-element multiplicity, which
  // is exactly the order the full reaccumulation adds the same weights in —
  // the per-site sums are bitwise identical to rebuild_closest's.
  std::vector<std::size_t> merged;
  std::size_t cursor = 0;
  for (std::size_t s : affected_sites) {
    const std::size_t begin = cursor;
    while (cursor < new_charges.size() && new_charges[cursor].first == s) ++cursor;
    const std::vector<std::size_t>& old_list = charge_lists_[s];
    merged.clear();
    std::size_t i = 0;
    std::size_t j = begin;
    while (i < old_list.size() || j < cursor) {
      if (i < old_list.size() && dirty_client_[old_list[i]] != 0) {
        ++i;  // Its fresh entries (if any) arrive from new_charges.
      } else if (j == cursor ||
                 (i < old_list.size() && old_list[i] < new_charges[j].second)) {
        merged.push_back(old_list[i++]);
      } else {
        merged.push_back(new_charges[j++].second);
      }
    }
    charge_lists_[s] = merged;
    double load = 0.0;
    for (std::size_t v : charge_lists_[s]) load += charge_weight(v);
    closest_load_[s] = load;
  }

  // Reprice exactly the clients whose response inputs changed: a repaired
  // chosen quorum / moved element, or a charged site whose load moved. The
  // recomputed values are bitwise the full pass's (same expression, same
  // inputs); untouched clients keep values with bitwise-unchanged inputs.
  for (std::size_t v : touched_clients) reprice_client_[v] = 1;
  for (std::size_t s : affected_sites) {
    for (std::size_t v : charge_lists_[s]) reprice_client_[v] = 1;
  }
  for (std::size_t v = 0; v < clients_; ++v) {
    if (reprice_client_[v] != 0) price_closest_client(v);
  }
  base_total_ = 0.0;
  for (std::size_t v = 0; v < clients_; ++v) {
    base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * client_sum_[v];
  }

  for (std::size_t v : touched_clients) dirty_client_[v] = 0;
  std::fill(reprice_client_.begin(), reprice_client_.end(), 0);
  refresh_candidate_tables();
}

double DeltaEvaluator::closest_if_moved_indexed(std::size_t element, std::size_t site,
                                                bool every_client) const {
  // Epoch-marked sparse scratch: per-candidate state is only written for the
  // clients/sites actually touched, so a candidate costs output-sensitive
  // time — never an O(n) clear. Thread-local for the parallel scan.
  // A client's classification and reprice state share one 32-byte record;
  // `state` and `d_new` are valid when classified == epoch.
  struct ClientScratch {
    std::uint64_t classified = 0;
    std::uint64_t repriced = 0;
    double d_new = 0.0;      // d(v, site).
    std::uint8_t state = 0;  // 0 unchanged, 1 kept, 2 re-chosen.
  };
  struct Scratch {
    std::uint64_t epoch = 0;
    std::vector<ClientScratch> client;
    std::vector<std::size_t> flip_off;        // state 2: slice of `chosen`.
    std::vector<std::size_t> flip_len;
    std::vector<std::size_t> chosen;          // concatenated flip quorums.
    std::vector<std::uint64_t> site_mark;     // load delta valid this epoch?
    std::vector<double> load_delta;
    std::vector<std::size_t> touched;         // sites with a load delta.
    std::vector<std::size_t> reprice;         // clients to reprice.
    std::vector<double> row;                  // Enumerated: patched values.
  };
  static thread_local Scratch sc;
  if (sc.client.size() != clients_) {
    sc.client.assign(clients_, ClientScratch{});
    sc.flip_off.assign(clients_, 0);
    sc.flip_len.assign(clients_, 0);
    sc.site_mark.assign(clients_, 0);
    sc.load_delta.assign(clients_, 0.0);
  }
  ++sc.epoch;
  sc.chosen.clear();
  sc.touched.clear();
  sc.reprice.clear();

  c_de_closest_indexed.add();
  std::size_t n_scanned = 0;
  std::size_t n_kept = 0;
  std::size_t n_recomputed = 0;
  std::size_t n_interval = 0;
  std::size_t n_certified = 0;

  const std::size_t old_site = placement_.site_of[element];
  const bool load = alpha_ != 0.0;
  const std::size_t k = side_;
  const std::size_t r0 = mode_ == Mode::ClosestGrid ? element / k : 0;
  const std::size_t c0 = mode_ == Mode::ClosestGrid ? element % k : 0;

  const auto touch = [&](std::size_t s, double delta) {
    if (sc.site_mark[s] != sc.epoch) {
      sc.site_mark[s] = sc.epoch;
      sc.load_delta[s] = 0.0;
      sc.touched.push_back(s);
    }
    sc.load_delta[s] += delta;
  };
  const auto mark_reprice = [&](std::size_t v) {
    if (sc.client[v].repriced != sc.epoch) {
      sc.client[v].repriced = sc.epoch;
      sc.reprice.push_back(v);
    }
  };

  // Classifies client v as unchanged, kept (u keeps its slot) or re-chosen.
  // `keep` is the Grid keep interval of a charger of the moved element.
  const auto classify = [&](std::size_t v, const KeepInterval* keep) {
    ClientScratch& cs = sc.client[v];
    if (cs.classified == sc.epoch) return;
    cs.classified = sc.epoch;
    cs.state = 0;
    ++n_scanned;
    const double d_new = site_rtt(v, site);
    cs.d_new = d_new;
    // kept: u keeps its slot in the still-chosen quorum, so only u's charge
    // moves. Otherwise the re-chosen quorum is appended to sc.chosen.
    bool kept = keep != nullptr && keep->lo <= d_new && d_new <= keep->hi;
    if (kept) {
      ++n_interval;
      QP_PARITY_ASSERT(static_cast<double>(grid_argmin_patched(v, element, d_new)),
                       static_cast<double>(chosen_row_[v] * k + chosen_col_[v]), 0.0,
                       "closest_if_moved_indexed: a keep-interval decision diverged "
                       "from the O(k) argmin reconstruction");
    } else {
      const bool contains_u = mode_ == Mode::ClosestGrid
                                  ? (chosen_row_[v] == r0 || chosen_col_[v] == c0)
                                  : in_best_[v * n_ + element] != 0;
      if (!contains_u && d_new > best_value_[v]) return;  // Provably unchanged.
      sc.flip_off[v] = sc.chosen.size();
      switch (mode_) {
        case Mode::ClosestMajority:
          kept = contains_u && (majority_q_ == n_ || d_new < second_value_[v]);
          if (!kept) majority_chosen_patched(v, element, d_new, sc.chosen);
          break;
        case Mode::ClosestGrid: {
          const std::size_t cell = grid_argmin_patched(v, element, d_new);
          const bool same_cell = cell == chosen_row_[v] * k + chosen_col_[v];
          QP_CHECK(keep == nullptr || !same_cell,
                   "closest_if_moved_indexed: the O(k) argmin kept a charger outside "
                   "its keep interval (interval not exact)");
          if (same_cell) {
            if (!contains_u) return;  // Same unmodified cell: provably unchanged.
            kept = true;
          } else {
            for_each_grid_element(k, cell / k, cell % k,
                                  [&](std::size_t e) { sc.chosen.push_back(e); });
          }
          break;
        }
        default: {  // ClosestEnumerated: Tree's DP tie-breaking is its own.
          const double* vals = values_.data() + v * n_;
          sc.row.assign(vals, vals + n_);
          sc.row[element] = d_new;
          const quorum::Quorum quorum = system_->best_quorum(sc.row);
          sc.chosen.insert(sc.chosen.end(), quorum.begin(), quorum.end());
          break;
        }
      }
    }
    const double w = load ? charge_weight(v) : 0.0;
    if (kept) {
      cs.state = 1;
      ++n_kept;
      if (load) {
        touch(old_site, -w);
        touch(site, w);
      }
    } else {
      cs.state = 2;
      ++n_recomputed;
      sc.flip_len[v] = sc.chosen.size() - sc.flip_off[v];
      if (load) {
        for (std::size_t e : chosen_quorum_[v]) touch(placement_.site_of[e], -w);
        for (std::size_t i = sc.flip_off[v]; i < sc.chosen.size(); ++i) {
          const std::size_t e = sc.chosen[i];
          touch(e == element ? site : placement_.site_of[e], w);
        }
      }
    }
    mark_reprice(v);
  };

  // A flip needs u to leave (the client charges u's current site) or the
  // new site to undercut m1 (the client's candidate list contains it, or
  // the client overflowed its list) — see client_index.hpp for why this is
  // exhaustive in the uncapped mode. Without an index every client is
  // classified. Keep intervals describe the element at a singly-hosted site
  // only.
  const std::vector<std::size_t>& chargers = charge_lists_[old_site];
  const KeepInterval* keep = mode_ == Mode::ClosestGrid && hosted_count_[old_site] == 1
                                 ? keep_interval_.data() + keep_offset_[old_site]
                                 : nullptr;
  for (std::size_t i = 0; i < chargers.size(); ++i) {
    classify(chargers[i], keep != nullptr ? keep + i : nullptr);
  }
  if (every_client) {
    for (std::size_t v = 0; v < clients_; ++v) classify(v, nullptr);
  } else {
    for (std::size_t v : candidate_index_->clients_of(site)) classify(v, nullptr);
    for (std::size_t v : overflow_clients_) classify(v, nullptr);
  }
  c_de_pruned.add(n_scanned - n_kept - n_recomputed);
  c_de_kept.add(n_kept);
  c_de_recomputed.add(n_recomputed);
  c_de_interval_keeps.add(n_interval);

  // Clients charging a load-touched site reprice even when their choice is
  // provably unchanged — the load term under their chosen quorum moved.
  // Sites whose deltas cancelled to exactly 0.0 change nothing: their
  // chargers would reprice to bitwise the same response, so skip them.
  // `rise` is the largest load increase a site charged by a non-flipped
  // client sees through an element other than the moved one (the new site
  // only counts when it already hosts something).
  double rise = 0.0;
  if (load) {
    for (std::size_t s : sc.touched) {
      if (sc.load_delta[s] == 0.0) continue;
      for (std::size_t v : charge_lists_[s]) mark_reprice(v);
      if (s != site || hosted_count_[site] != 0) rise = std::max(rise, sc.load_delta[s]);
    }
  }

  // Reprice only the affected clients against the patched loads; everyone
  // else contributes their cached response through base_total_.
  // Element e's candidate term given its pre-move distance d (the moved
  // element is priced at d_new on the new site instead).
  const auto term = [&](std::size_t e, double d, double d_new) {
    const bool moved = e == element;
    const double dist = moved ? d_new : d;
    if (!load) return dist;
    const std::size_t s = moved ? site : placement_.site_of[e];
    const double site_load =
        closest_load_[s] + (sc.site_mark[s] == sc.epoch ? sc.load_delta[s] : 0.0);
    return dist + alpha_ * site_load;
  };
  const auto price = [&](std::size_t v, const std::size_t* ids, std::size_t len,
                         double d_new) {
    const double* vals = values_.data() + v * n_;
    double worst = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      worst = std::max(worst, term(ids[i], vals[ids[i]], d_new));
    }
    return worst;
  };
  const double neg_inf = -std::numeric_limits<double>::infinity();
  double total = base_total_;
  for (std::size_t v : sc.reprice) {
    const ClientScratch& cs = sc.client[v];
    const std::uint8_t state = cs.classified == sc.epoch ? cs.state : std::uint8_t{0};
    // Only classified clients can hold the moved element; for the others
    // d_new is never read.
    const double d_new = state != 0 ? cs.d_new : 0.0;
    const quorum::Quorum& chosen = chosen_quorum_[v];
    double worst;
    if (state == 2) {
      worst = price(v, sc.chosen.data() + sc.flip_off[v], sc.flip_len[v], d_new);
    } else {
      // The choice did not flip: every term outside the certificate's top
      // two (and the moved element's) was <= third and rose by at most
      // alpha * rise, so if that stays strictly below the recomputed terms'
      // maximum, the full max is exactly that maximum.
      const PriceCert& cert = price_cert_[v];
      double top = 0.0;
      if (cert.first < n_) top = std::max(top, term(cert.first, cert.first_d, d_new));
      if (cert.second < n_) top = std::max(top, term(cert.second, cert.second_d, d_new));
      if (state == 1) top = std::max(top, term(element, d_new, d_new));
      const double rest = load ? cert.third + alpha_ * rise : cert.third;
      if (cert.third == neg_inf || rest + kCertSlack * std::fabs(rest) < top) {
        worst = top;
        ++n_certified;
        QP_PARITY_ASSERT(worst, price(v, chosen.data(), chosen.size(), d_new), 0.0,
                         "closest_if_moved_indexed: a certified reprice diverged from "
                         "the full quorum loop");
      } else {
        worst = price(v, chosen.data(), chosen.size(), d_new);
      }
    }
    total += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
             (worst - client_sum_[v]);
  }
  c_de_repriced.add(sc.reprice.size());
  c_de_certified.add(n_certified);
  const double result =
      client_weight_.empty() ? total / static_cast<double>(clients_) : total;
#if QP_PARITY_AUDIT_ENABLED
  // Uncapped indexes promise exactness: the same routine over every client
  // must agree (capped indexes are openly approximate).
  if (!every_client && !candidate_index_->capped()) {
    QP_PARITY_ASSERT(result, closest_if_moved_indexed(element, site, true), 1e-9,
                     "closest_if_moved_indexed: the index pruned a client whose "
                     "response changes");
  }
#endif
  return result;
}

void DeltaEvaluator::apply_move(std::size_t element, std::size_t site) {
  if (element >= n_ || site >= clients_) {
    throw std::out_of_range{"DeltaEvaluator::apply_move: element or site out of range"};
  }
  const std::size_t old_site = placement_.site_of[element];
  c_de_apply.add();
  if (closest_) {
    if (site != old_site) apply_move_closest(element, site);
  } else if (site == old_site) {
    // No-op move: nothing to repair.
  } else if (load_aware_ &&
             (hosted_count_[old_site] != 1 || hosted_count_[site] != 0)) {
    // Colocating (or de-colocating) load-aware move: many coordinates shift,
    // so rebuild from scratch. The one-to-one local search never takes this
    // path; it exists for arbitrary apply_move callers.
    c_de_rebuilds.add();
    placement_.site_of[element] = site;
    rebuild();
  } else {
    const double old_add = load_aware_ ? site_term_[old_site] : 0.0;
    const double new_add =
        load_aware_ ? alpha_ * (site_load_[site] + lambda_[element]) : 0.0;
    if (load_aware_) {
      // old_site hosted exactly `element`, site hosted nothing: the exact
      // post-move tables need no re-accumulation.
      site_load_[old_site] = 0.0;
      hosted_count_[old_site] = 0;
      site_load_[site] = lambda_[element];
      hosted_count_[site] = 1;
      site_term_[old_site] = 0.0;
      site_term_[site] = alpha_ * site_load_[site];
    }
    placement_.site_of[element] = site;
    repair_single(element, site, old_site, old_add, new_add);
  }
#if QP_PARITY_AUDIT_ENABLED
  // Parity against the naive objective: the repaired base must match a full
  // re-evaluation (summation order differs, hence the tolerance). Armed at
  // QP_CHECK_LEVEL=2 (the asan preset), not by build type. The canonical
  // evaluator needs the dense table, so implicit spaces skip this audit.
  if (matrix_ != nullptr) {
    const double naive = objective_->evaluate(*matrix_, *system_, placement_);
    QP_PARITY_ASSERT(objective(), naive, 1e-9,
                     "apply_move: incrementally repaired objective diverged from a "
                     "fresh evaluation of the moved placement");
  }
#endif
}

}  // namespace qp::core
