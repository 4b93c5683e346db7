#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/diag.h"

namespace spmwcet::lp {

namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau over the standard form
///     max c'x  s.t.  Ax = b, x >= 0, b >= 0,
/// stored as one row-major buffer: row i holds A's row i followed by b_i,
/// so copying a tableau is one allocation and a pivot is one sweep per row.
/// Once phase one is done the artificial columns are dropped from the
/// buffer (drop_columns_from); c_ keeps one price per standard-form column,
/// so an artificial left basic in a redundant row still prices at -1e30.
class Tableau {
public:
  Tableau(std::size_t rows, std::size_t cols)
      : a_(rows * (cols + 1), 0.0), c_(cols, 0.0), basis_(rows, -1),
        rows_(rows), cols_(cols) {}

  std::vector<double> a_; ///< rows_ x (cols_ + 1), b in the last column
  std::vector<double> c_; ///< one price per standard-form column
  std::vector<int> basis_;
  std::size_t rows_, cols_;

  double* row(std::size_t i) { return a_.data() + i * (cols_ + 1); }
  const double* row(std::size_t i) const {
    return a_.data() + i * (cols_ + 1);
  }
  double& at(std::size_t i, std::size_t j) { return row(i)[j]; }
  double at(std::size_t i, std::size_t j) const { return row(i)[j]; }
  double& rhs(std::size_t i) { return row(i)[cols_]; }
  double rhs(std::size_t i) const { return row(i)[cols_]; }

  /// Removes columns [keep, cols_) from the buffer. Only for columns priced
  /// at -1e30 (eliminated artificials), which never enter: no pivot reads
  /// one column to update another, so the remaining columns see exactly
  /// the arithmetic they would with those columns present.
  void drop_columns_from(std::size_t keep) {
    if (keep == cols_) return;
    std::vector<double> a(rows_ * (keep + 1));
    for (std::size_t i = 0; i < rows_; ++i) {
      const double* src = row(i);
      double* dst = a.data() + i * (keep + 1);
      std::copy(src, src + keep, dst);
      dst[keep] = src[cols_];
    }
    a_ = std::move(a);
    cols_ = keep;
  }

  /// Reduced costs d_j = c_j - z_j of every column, priced from scratch
  /// from the basis: z_j = sum_i c_B(i) * a_ij, accumulated row by row, so
  /// every z_j sums its terms in row order. Rows priced at zero are
  /// skipped; their terms are signed zeros, which leave a sum that starts
  /// at +0.0 unchanged.
  void price(std::vector<double>& d) const {
    d.assign(cols_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      const double y = c_[basis_[i]];
      if (y == 0.0) continue;
      const double* ai = row(i);
      for (std::size_t j = 0; j < cols_; ++j) d[j] += y * ai[j];
    }
    for (std::size_t j = 0; j < cols_; ++j) d[j] = c_[j] - d[j];
  }

  /// Bland's rule: the first column whose reduced cost improves, or -1.
  static int first_improving(const std::vector<double>& d) {
    for (std::size_t j = 0; j < d.size(); ++j)
      if (d[j] > kEps) return static_cast<int>(j);
    return -1;
  }

  /// Runs primal simplex with Bland's rule on the current basis (which must
  /// be feasible). Returns false if unbounded.
  ///
  /// The reduced costs are priced once from the basis and then carried:
  /// each pivot updates them like one more tableau row. Bland's rule reads
  /// the carried row; only when it shows no improving column are they
  /// re-priced from scratch, and pivoting continues if a column improves
  /// then. Optimality is therefore always decided by fresh pricing, so a
  /// solve never stops where a fresh-pricing simplex would continue.
  bool optimize() {
    std::vector<double> d;
    std::vector<uint32_t> nonzero;
    price(d);
    bool fresh = true;
    for (;;) {
      int enter = first_improving(d);
      if (enter < 0 && !fresh) {
        price(d);
        fresh = true;
        enter = first_improving(d);
      }
      if (enter < 0) return true; // optimal

      // Ratio test (Bland: smallest basis index breaks ties).
      int leave = -1;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < rows_; ++i) {
        const double a = at(i, static_cast<std::size_t>(enter));
        if (a > kEps) {
          const double ratio = rhs(i) / a;
          if (ratio < best - kEps ||
              (ratio < best + kEps &&
               (leave < 0 || basis_[i] < basis_[leave]))) {
            best = ratio;
            leave = static_cast<int>(i);
          }
        }
      }
      if (leave < 0) return false; // unbounded
      pivot(static_cast<std::size_t>(leave), static_cast<std::size_t>(enter),
            nonzero, &d);
      fresh = false;
    }
  }

  /// Pivots on (r, c); `d`, when given, is a reduced-cost row updated with
  /// the tableau (its entering entry becomes exactly zero). `nonzero` is
  /// scratch for the pivot row's non-zero columns.
  ///
  /// Rows are updated only in the columns where the normalized pivot row
  /// is non-zero. Elsewhere the dense update would subtract a signed zero,
  /// which leaves every value unchanged except possibly the sign of a zero
  /// entry; no comparison, division or non-zero result ever depends on
  /// that sign, and the solution's values and objective come out with the
  /// same bits, so the pivot path is the dense update's.
  void pivot(std::size_t r, std::size_t c, std::vector<uint32_t>& nonzero,
             std::vector<double>* d = nullptr) {
    double* pr = row(r);
    const double p = pr[c];
    nonzero.clear();
    for (std::size_t j = 0; j <= cols_; ++j) { // b included
      pr[j] /= p;
      if (pr[j] != 0.0) nonzero.push_back(static_cast<uint32_t>(j));
    }
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == r) continue;
      double* pi = row(i);
      const double f = pi[c];
      if (std::fabs(f) < kEps) continue;
      for (const uint32_t j : nonzero) pi[j] -= f * pr[j];
    }
    if (d != nullptr) {
      const double f = (*d)[c];
      for (const uint32_t j : nonzero)
        if (j < cols_) (*d)[j] -= f * pr[j];
    }
    basis_[r] = static_cast<int>(c);
  }
};

/// The standard-form tableau plus its column layout:
/// structural | slack/surplus | artificial.
struct StandardForm {
  Tableau t;
  std::size_t n = 0;       // structural variables
  std::size_t n_slack = 0; // slack + surplus columns
  std::size_t n_art = 0;   // artificial columns
};

StandardForm build_standard_form(const Model& model) {
  const auto& vars = model.vars();
  const std::size_t n = vars.size();

  // Count structural rows: model constraints + finite upper bounds.
  std::vector<std::size_t> ub_rows;
  for (std::size_t j = 0; j < n; ++j)
    if (std::isfinite(vars[j].upper)) ub_rows.push_back(j);

  const std::size_t m = model.num_constraints() + ub_rows.size();

  // Build rows in the shifted space x' = x - lower >= 0.
  struct Row {
    std::vector<double> a;
    Relation rel;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(m);
  for (const auto& con : model.constraints()) {
    Row row{std::vector<double>(n, 0.0), con.rel, con.rhs};
    for (const Term& t : con.terms) row.a[static_cast<std::size_t>(t.var)] += t.coef;
    for (std::size_t j = 0; j < n; ++j) row.rhs -= row.a[j] * vars[j].lower;
    rows.push_back(std::move(row));
  }
  for (const std::size_t j : ub_rows) {
    Row row{std::vector<double>(n, 0.0), Relation::LE,
            vars[j].upper - vars[j].lower};
    row.a[j] = 1.0;
    rows.push_back(std::move(row));
  }

  // Normalize to rhs >= 0.
  for (auto& row : rows) {
    if (row.rhs < 0.0) {
      for (double& v : row.a) v = -v;
      row.rhs = -row.rhs;
      if (row.rel == Relation::LE)
        row.rel = Relation::GE;
      else if (row.rel == Relation::GE)
        row.rel = Relation::LE;
    }
  }

  // Column layout: structural | slack/surplus | artificial.
  std::size_t n_slack = 0, n_art = 0;
  for (const auto& row : rows) {
    if (row.rel != Relation::EQ) ++n_slack;
    if (row.rel != Relation::LE) ++n_art;
  }
  const std::size_t cols = n + n_slack + n_art;
  StandardForm sf{Tableau(rows.size(), cols), n, n_slack, n_art};
  Tableau& t = sf.t;

  std::size_t slack_at = n, art_at = n + n_slack;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    for (std::size_t j = 0; j < n; ++j) t.at(i, j) = row.a[j];
    t.rhs(i) = row.rhs;
    if (row.rel == Relation::LE) {
      t.at(i, slack_at) = 1.0;
      t.basis_[i] = static_cast<int>(slack_at);
      ++slack_at;
    } else if (row.rel == Relation::GE) {
      t.at(i, slack_at) = -1.0; // surplus
      ++slack_at;
      t.at(i, art_at) = 1.0;
      t.basis_[i] = static_cast<int>(art_at);
      ++art_at;
    } else {
      t.at(i, art_at) = 1.0;
      t.basis_[i] = static_cast<int>(art_at);
      ++art_at;
    }
  }
  return sf;
}

/// Forbids the artificial columns from (re-)entering: prices them at -1e30
/// and drops them from the tableau buffer, which leaves structural and
/// slack columns with unchanged indices.
void forbid_artificials(StandardForm& sf) {
  Tableau& t = sf.t;
  const std::size_t width = sf.n + sf.n_slack;
  for (std::size_t j = width; j < t.c_.size(); ++j) t.c_[j] = -1e30;
  t.drop_columns_from(width);
}

/// Phase 1: maximize -(sum of artificials), then drive surviving basic
/// artificials out and forbid the columns from re-entering. Returns false
/// when the model is infeasible. Call only when sf.n_art > 0.
bool eliminate_artificials(StandardForm& sf) {
  Tableau& t = sf.t;
  const std::size_t n = sf.n;
  const std::size_t cols = t.cols_;
  for (std::size_t j = n + sf.n_slack; j < cols; ++j) t.c_[j] = -1.0;
  if (!t.optimize())
    throw SolverError("simplex: phase 1 unbounded (internal error)");
  double art_sum = 0.0;
  for (std::size_t i = 0; i < t.rows_; ++i)
    if (t.basis_[i] >= static_cast<int>(n + sf.n_slack)) art_sum += t.rhs(i);
  if (art_sum > 1e-6) return false;
  // Drive remaining basic artificials out of the basis if possible.
  std::vector<uint32_t> nonzero;
  for (std::size_t i = 0; i < t.rows_; ++i) {
    if (t.basis_[i] < static_cast<int>(n + sf.n_slack)) continue;
    bool pivoted = false;
    for (std::size_t j = 0; j < n + sf.n_slack && !pivoted; ++j) {
      if (std::fabs(t.at(i, j)) > kEps) {
        t.pivot(i, j, nonzero);
        pivoted = true;
      }
    }
    // A row with no eligible pivot is redundant; its basic artificial
    // stays at value zero, which is harmless as long as phase 2 never
    // prices artificial columns (their cost stays at -1e30). Its entries
    // are all below kEps, and no later pivot touches the row, but pricing
    // multiplies them by that -1e30: clear them, or a rounding residual
    // becomes a reduced cost of order 1e13 and the simplex can cycle.
    if (!pivoted)
      for (std::size_t j = 0; j < n + sf.n_slack; ++j) t.at(i, j) = 0.0;
  }
  forbid_artificials(sf);
  return true;
}

/// Phase 2 on a phase-one-feasible tableau: installs the true objective in
/// the shifted space, optimizes, and extracts the solution back into the
/// variables' original (lower-shifted) space.
Solution finish_phase2(Tableau& t, std::size_t n, double sign,
                       const std::vector<double>& objective,
                       const std::vector<double>& lowers) {
  for (std::size_t j = 0; j < n; ++j) t.c_[j] = sign * objective[j];

  if (!t.optimize()) {
    Solution sol;
    sol.status = Status::Unbounded;
    return sol;
  }

  Solution sol;
  sol.status = Status::Optimal;
  sol.values.assign(n, 0.0);
  for (std::size_t i = 0; i < t.rows_; ++i)
    if (t.basis_[i] >= 0 && t.basis_[i] < static_cast<int>(n))
      sol.values[static_cast<std::size_t>(t.basis_[i])] = t.rhs(i);
  double obj = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    sol.values[j] += lowers[j];
    obj += objective[j] * sol.values[j];
  }
  sol.objective = obj;
  sol.basis = std::move(t.basis_); // every caller's tableau is a temporary
  return sol;
}

std::vector<double> lower_bounds(const Model& model) {
  std::vector<double> lowers(model.num_vars());
  for (std::size_t j = 0; j < model.num_vars(); ++j)
    lowers[j] = model.vars()[j].lower;
  return lowers;
}

} // namespace

Solution solve_lp(const Model& model) {
  StandardForm sf = build_standard_form(model);
  if (sf.n_art > 0 && !eliminate_artificials(sf)) {
    Solution sol;
    sol.status = Status::Infeasible;
    return sol;
  }
  const double sign = model.sense() == Sense::Maximize ? 1.0 : -1.0;
  return finish_phase2(sf.t, sf.n, sign, model.objective(),
                       lower_bounds(model));
}

// ---- PreparedLp ------------------------------------------------------------

struct PreparedLp::Impl {
  StandardForm sf;
  std::vector<double> lowers;
  bool infeasible = false;

  explicit Impl(StandardForm s) : sf(std::move(s)) {}
};

PreparedLp::PreparedLp(const Model& model)
    : impl_(std::make_unique<Impl>(build_standard_form(model))) {
  impl_->lowers = lower_bounds(model);
  if (impl_->sf.n_art > 0 && !eliminate_artificials(impl_->sf))
    impl_->infeasible = true;
}

PreparedLp::~PreparedLp() = default;
PreparedLp::PreparedLp(PreparedLp&&) noexcept = default;
PreparedLp& PreparedLp::operator=(PreparedLp&&) noexcept = default;

std::size_t PreparedLp::num_vars() const { return impl_->sf.n; }

Solution PreparedLp::solve(Sense sense,
                           const std::vector<double>& objective) const {
  SPMWCET_CHECK_MSG(objective.size() == impl_->sf.n,
                    "PreparedLp: objective size mismatch");
  if (impl_->infeasible) {
    Solution sol;
    sol.status = Status::Infeasible;
    return sol;
  }
  StandardForm copy = impl_->sf; // phase two works on a private tableau
  const double sign = sense == Sense::Maximize ? 1.0 : -1.0;
  return finish_phase2(copy.t, copy.n, sign, objective, impl_->lowers);
}

} // namespace spmwcet::lp
