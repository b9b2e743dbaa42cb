#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace sidis::linalg {

namespace {

/// QL iterations allowed per eigenvalue before giving up (EISPACK's limit).
constexpr int kMaxIterationsPerValue = 30;

/// Householder reduction of symmetric `w` to tridiagonal form (EISPACK
/// tred2).  On return `d` holds the diagonal, `e[1..n)` the subdiagonal
/// (`e[0] = 0`), and `w` the *transpose* of the accumulated orthogonal
/// transform Q (A = Q T Q^T).  Working on the transpose makes every inner
/// loop walk a row: the textbook algorithm's column sweeps over Q's lower
/// triangle become row sweeps over w's upper triangle.
void tridiagonalize(Matrix& w, Vector& d, Vector& e) {
  const std::size_t n = w.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      // Householder vector, scaled against under/overflow.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);

      // e = A u over the leading i x i block (its upper triangle in w).
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        w(i, j) = f;
        const double* wj = w.row(j).data();
        g = e[j] + wj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];

      // Rank-2 update of the block: A -= u e^T + e u^T.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        double* wj = w.row(j).data();
        for (std::size_t k = j; k < i; ++k) wj[k] -= f * e[k] + g * d[k];
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflectors into Q^T.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    w(i, n - 1) = w(i, i);
    w(i, i) = 1.0;
    const double h = d[i + 1];
    double* wi1 = w.row(i + 1).data();
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = wi1[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* wj = w.row(j).data();
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += wi1[k] * wj[k];
        for (std::size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) wi1[k] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = w(j, n - 1);
    w(j, n - 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize (EISPACK
/// tql2), rotating the rows of `w` (= Q^T) along.  On return `d` holds the
/// eigenvalues, unsorted, and row j of `w` the eigenvector of d[j].  Each
/// Givens rotation mixes two adjacent rows of `w`, both contiguous.  Returns
/// false when some eigenvalue ran out of iterations.
bool tridiagonal_ql(Vector& d, Vector& e, Matrix& w, int& iterations) {
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  double f = 0.0;
  double tst1 = 0.0;
  bool converged = true;
  for (std::size_t l = 0; l < n; ++l) {
    // Find the first negligible subdiagonal element at or after l.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && !(std::abs(e[m]) <= eps * tst1)) ++m;

    if (m > l) {
      int iter = 0;
      do {
        if (++iter > kMaxIterationsPerValue) {
          converged = false;
          break;
        }
        ++iterations;
        // Implicit Wilkinson-style shift from the leading 2x2 block.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Chase the bulge from m back up to l.
        p = d[m];
        double c = 1.0, c2 = 1.0, c3 = 1.0;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          double* __restrict wi = w.row(i).data();
          double* __restrict wi1 = w.row(i + 1).data();
          for (std::size_t k = 0; k < n; ++k) {
            const double a = wi[k];
            const double b = wi1[k];
            wi1[k] = s * a + c * b;
            wi[k] = c * a - s * b;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return converged;
}

}  // namespace

EigenDecomposition eigen_symmetric(const Matrix& a_in) {
  if (a_in.rows() != a_in.cols()) {
    throw std::invalid_argument("eigen_symmetric: non-square matrix");
  }
  const std::size_t n = a_in.rows();
  EigenDecomposition out;
  if (n == 0) {
    out.converged = true;
    return out;
  }

  // Symmetrize to guard against accumulation asymmetry.
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) w(i, j) = 0.5 * (a_in(i, j) + a_in(j, i));
  }
  Vector d(n), e(n);
  tridiagonalize(w, d, e);
  out.converged = tridiagonal_ql(d, e, w, out.iterations);
  for (double v : d) out.converged = out.converged && std::isfinite(v);

  // Sort eigenpairs by descending eigenvalue; ties keep QL order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });

  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    out.values[c] = d[order[c]];
    const double* v = w.row(order[c]).data();
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, c) = v[r];
  }
  return out;
}

}  // namespace sidis::linalg
