#include "linalg/decompositions.hpp"

#include "linalg/lanes.hpp"

#include <cmath>
#include <stdexcept>

namespace sidis::linalg {

Cholesky Cholesky::compute(const Matrix& a) {
  Cholesky out;
  if (a.rows() != a.cols()) return out;
  const std::size_t n = a.rows();
  out.l = Matrix(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= out.l(j, k) * out.l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return out;  // not SPD
    const double ljj = std::sqrt(diag);
    out.l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= out.l(i, k) * out.l(j, k);
      out.l(i, j) = acc / ljj;
    }
  }
  out.valid = true;
  return out;
}

Vector Cholesky::solve(const Vector& b) const {
  if (!valid) throw std::runtime_error("Cholesky::solve on invalid factorization");
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("Cholesky::solve: size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {  // forward: L y = b
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
    y[i] = acc / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {  // backward: L^T x = y
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
    x[ii] = acc / l(ii, ii);
  }
  return x;
}

double Cholesky::log_det() const {
  if (!valid) throw std::runtime_error("Cholesky::log_det on invalid factorization");
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

double Cholesky::mahalanobis_squared(const Vector& x) const {
  if (!valid) throw std::runtime_error("Cholesky::mahalanobis on invalid factorization");
  // x^T (L L^T)^{-1} x = ||L^{-1} x||^2; one forward substitution suffices.
  const std::size_t n = l.rows();
  if (x.size() != n) throw std::invalid_argument("Cholesky::mahalanobis: size mismatch");
  double acc = 0.0;
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = x[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
    acc += y[i] * y[i];
  }
  return acc;
}

void Cholesky::mahalanobis_squared_batch(const Matrix& x_cols, std::span<double> out,
                                         Matrix& y) const {
  if (!valid) throw std::runtime_error("Cholesky::mahalanobis on invalid factorization");
  const std::size_t n = l.rows();
  const std::size_t lanes = x_cols.cols();
  if (x_cols.rows() != n || out.size() != lanes) {
    throw std::invalid_argument("Cholesky::mahalanobis: size mismatch");
  }
  if (y.rows() != n || y.cols() != lanes) y = Matrix(n, lanes);
  // Mirror of the scalar routine lane-parallel: for each lane, v starts at
  // x[i], subtracts l(i,k) * y[k] in ascending k, divides by the diagonal,
  // and squares into the running sum -- the identical operation sequence, so
  // each lane's result matches the scalar call.  Each tile keeps row i's
  // partial sums in registers across the k loop (see lanes.hpp), and the
  // squared sum in registers across the rows.
  dispatch_lanes([&]<std::size_t VB>() {
    for_each_tile<VB>(lanes, [&]<class T>(std::size_t l0) {
      T sum;
      for (std::size_t i = 0; i < n; ++i) {
        T v;
        v.load(x_cols.row(i).data() + l0);
        for (std::size_t k = 0; k < i; ++k) {
          v.mul_sub(l(i, k), y.row(k).data() + l0);
        }
        v.div(l(i, i));
        v.store(y.row(i).data() + l0);
        sum.add_square(v);
      }
      sum.store(out.data() + l0);
    });
  });
}

Lu Lu::compute(const Matrix& a) {
  Lu out;
  if (a.rows() != a.cols()) return out;
  const std::size_t n = a.rows();
  out.lu = a;
  out.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.perm[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // pivot selection
    std::size_t pivot = col;
    double best = std::abs(out.lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(out.lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300 || !std::isfinite(best)) return out;  // singular
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(out.lu(pivot, c), out.lu(col, c));
      std::swap(out.perm[pivot], out.perm[col]);
      out.sign = -out.sign;
    }
    const double d = out.lu(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = out.lu(r, col) / d;
      out.lu(r, col) = f;
      for (std::size_t c = col + 1; c < n; ++c) out.lu(r, c) -= f * out.lu(col, c);
    }
  }
  out.valid = true;
  return out;
}

Vector Lu::solve(const Vector& b) const {
  if (!valid) throw std::runtime_error("Lu::solve on invalid factorization");
  const std::size_t n = lu.rows();
  if (b.size() != n) throw std::invalid_argument("Lu::solve: size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {  // L y = P b
    double acc = b[perm[i]];
    for (std::size_t k = 0; k < i; ++k) acc -= lu(i, k) * y[k];
    y[i] = acc;
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {  // U x = y
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= lu(ii, k) * x[k];
    x[ii] = acc / lu(ii, ii);
  }
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  Matrix out(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector x = solve(b.col_vector(c));
    for (std::size_t r = 0; r < b.rows(); ++r) out(r, c) = x[r];
  }
  return out;
}

double Lu::determinant() const {
  if (!valid) return 0.0;
  double det = static_cast<double>(sign);
  for (std::size_t i = 0; i < lu.rows(); ++i) det *= lu(i, i);
  return det;
}

Matrix Lu::inverse() const {
  if (!valid) throw std::runtime_error("Lu::inverse on singular matrix");
  return solve(Matrix::identity(lu.rows()));
}

Matrix inverse(const Matrix& a) {
  const Lu f = Lu::compute(a);
  if (!f.valid) throw std::runtime_error("inverse: matrix is singular");
  return f.inverse();
}

Vector solve(const Matrix& a, const Vector& b) {
  const Lu f = Lu::compute(a);
  if (!f.valid) throw std::runtime_error("solve: matrix is singular");
  return f.solve(b);
}

Matrix regularized(const Matrix& a, double lambda) {
  Matrix out = a;
  for (std::size_t i = 0; i < std::min(a.rows(), a.cols()); ++i) out(i, i) += lambda;
  return out;
}

}  // namespace sidis::linalg
