// Linear-program container: minimize c^T x subject to sparse linear rows and
// x >= 0. This is the modeling layer that replaces the paper's GNU MathProg
// models; the access-strategy LP (4.3)-(4.6) and the many-to-one placement
// LP are both built through this interface and solved by
// lp::RevisedSimplexSolver. certify_optimality checks a claimed optimum
// against the problem alone, independent of the solver that produced it.
//
// Variables are non-negative. Upper bounds must be expressed as rows by the
// caller when needed; the LPs in this codebase never need explicit upper
// bounds because per-client probabilities are already capped by their
// sum-to-one equality rows.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qp::lp {

enum class RowSense { LessEqual, Equal, GreaterEqual };

/// One nonzero of a sparse column.
struct ColumnEntry {
  std::size_t row = 0;
  double value = 0.0;
};

class LpProblem {
 public:
  /// Adds a variable (x_j >= 0) with the given objective coefficient;
  /// returns its index.
  std::size_t add_variable(double objective_coefficient, std::string name = {});

  /// Adds a constraint row with the given sense and right-hand side;
  /// returns its index.
  std::size_t add_row(RowSense sense, double rhs, std::string name = {});

  /// Sets A[row][var] = value (accumulates if called twice for one cell).
  void add_coefficient(std::size_t row, std::size_t variable, double value);

  [[nodiscard]] std::size_t variable_count() const noexcept { return columns_.size(); }
  [[nodiscard]] std::size_t row_count() const noexcept { return senses_.size(); }

  [[nodiscard]] double objective_coefficient(std::size_t variable) const;
  [[nodiscard]] const std::vector<ColumnEntry>& column(std::size_t variable) const;
  [[nodiscard]] RowSense row_sense(std::size_t row) const;
  [[nodiscard]] double rhs(std::size_t row) const;
  [[nodiscard]] const std::string& variable_name(std::size_t variable) const;
  [[nodiscard]] const std::string& row_name(std::size_t row) const;

  /// Merges duplicate (row, var) entries; called by the solver before use.
  void consolidate();

  /// Evaluates c^T x for a candidate point (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Max violation of any row/sign constraint at x; 0 means feasible.
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

 private:
  void check_variable(std::size_t variable) const;
  void check_row(std::size_t row) const;

  std::vector<std::vector<ColumnEntry>> columns_;
  std::vector<double> objective_;
  std::vector<std::string> variable_names_;
  std::vector<RowSense> senses_;
  std::vector<double> rhs_;
  std::vector<std::string> row_names_;
};

/// Residuals of the LP duality certificate for a primal point x and row
/// duals y, in the sign convention of lp::SolveResult (minimization: y_i <= 0
/// on LessEqual rows, y_i >= 0 on GreaterEqual rows, free on Equal rows).
/// Primal feasibility, dual feasibility and a zero gap c^T x = b^T y prove x
/// optimal by weak duality; complementary slackness follows, because the gap
/// is the sum of the non-negative products x_j * reduced_cost_j and
/// y_i * (A_i x - b_i).
struct OptimalityCertificate {
  /// LpProblem::max_violation(x): worst row or sign violation.
  double primal_violation = 0.0;
  /// Worst wrong-sign dual: y_i on a LessEqual row, -y_i on a GreaterEqual row.
  double dual_sign_violation = 0.0;
  /// Worst negative reduced cost c_j - y^T A_j.
  double reduced_cost_violation = 0.0;
  /// |c^T x - b^T y|.
  double duality_gap = 0.0;
  /// c^T x.
  double objective = 0.0;

  /// Acceptance bound of holds(): absolute on the first three residuals,
  /// relative to max(1, |c^T x|) on the gap.
  static constexpr double kTolerance = 1e-7;

  /// True when the first three residuals are <= kTolerance and the gap is
  /// <= kTolerance * max(1, |c^T x|). A non-finite x or y makes the gap NaN
  /// or infinite, so it never holds.
  [[nodiscard]] bool holds() const noexcept;
};

/// Checks a claimed optimum (x = values, y = duals) of `problem` in
/// O(nonzeros). Throws std::invalid_argument on a size mismatch.
[[nodiscard]] OptimalityCertificate certify_optimality(const LpProblem& problem,
                                                       const std::vector<double>& values,
                                                       const std::vector<double>& duals);

}  // namespace qp::lp
