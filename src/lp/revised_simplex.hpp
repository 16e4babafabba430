// Sparse revised simplex with an LU-factorized basis and warm starts.
//
// This is the one simplex engine in the tree: the access-strategy LP and the
// many-to-one placement LP both run through it. Design:
//   * column-wise sparse constraint storage — reduced costs and ftran touch
//     only nonzeros, so cost per pivot scales with fill, not rows x cols;
//   * the basis is LU-factorized (Gilbert–Peierls left-looking elimination
//     with partial pivoting) and updated between refactorizations by
//     product-form eta vectors; it is refactorized from scratch every
//     100 pivots or when the eta file grows past a fill
//     budget, whichever comes first;
//   * Dantzig pricing over a rotating partial window (`pricing_window`),
//     with a Bland's-rule fallback after a run of degenerate pivots, which
//     guarantees termination;
//   * phase 1 drives the artificials (one per row; they never re-enter the
//     basis) to zero, phase 2 re-prices with the true objective;
//   * warm starts: `SimplexOptions::initial_basis` seeds the basis from a
//     previous solve of a related LP. Invalid entries are patched with
//     artificials, a singular seed falls back to the cold basis, and a
//     primal-infeasible seed is repaired by a composite phase 1 that prices
//     negative basic variables alongside residual artificials — so a basis
//     from an LP with slightly different costs / right-hand sides lands a
//     handful of pivots from optimal instead of restarting from scratch.
//
// Everything is single-threaded and allocation-order deterministic: the same
// problem and options produce bit-identical results for any thread count.
// With QP_CHECK_LEVEL >= 2 every Optimal result is checked against
// lp::certify_optimality before it is returned.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace qp::lp {

/// Solution of RevisedSimplexSolver, including the optimal basis, which
/// callers thread into the next related solve via
/// SimplexOptions::initial_basis.
struct SolveResult {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  /// Primal values for the structural variables (empty unless Optimal).
  std::vector<double> values;
  /// Row duals y (empty unless Optimal). Sign convention for the
  /// minimization: y_i <= 0 on LessEqual rows, y_i >= 0 on GreaterEqual
  /// rows at optimality (see lp::OptimalityCertificate).
  std::vector<double> duals;
  std::size_t iterations = 0;
  /// Optimal basis, one entry per row (empty unless Optimal).
  Basis basis;
};

class RevisedSimplexSolver {
 public:
  explicit RevisedSimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves min c^T x, Ax {<=,=,>=} b, x >= 0. The problem is consolidated
  /// (duplicate coefficients merged) as a side effect.
  [[nodiscard]] SolveResult solve(LpProblem& problem) const;

 private:
  SimplexOptions options_;
};

}  // namespace qp::lp
