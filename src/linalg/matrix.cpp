#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sidis::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size(), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) {
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    }
    std::copy(rows[r].begin(), rows[r].end(), m.data_.begin() + static_cast<std::ptrdiff_t>(r * m.cols_));
  }
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

Vector Matrix::row_vector(std::size_t r) const {
  auto s = row(r);
  return Vector(s.begin(), s.end());
}

Vector Matrix::col_vector(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

namespace {
void check_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("Matrix: shape mismatch in ") + op);
  }
}
}  // namespace

Matrix Matrix::operator+(const Matrix& rhs) const {
  Matrix out = *this;
  out += rhs;
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  Matrix out = *this;
  out -= rhs;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  check_same_shape(*this, rhs, "+");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  check_same_shape(*this, rhs, "-");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix: shape mismatch in product");
  Matrix out(rows_, rhs.cols_, 0.0);
  // i-k-j loop order keeps the innermost accesses contiguous for both
  // operands, which matters for the 15k-point KL maps.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = rhs.data_.data() + k * rhs.cols_;
      double* orow = out.data_.data() + i * out.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  if (v.size() != cols_) throw std::invalid_argument("Matrix: shape mismatch in mat-vec");
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* mrow = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += mrow[c] * v[c];
    out[r] = acc;
  }
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::trace() const {
  if (rows_ != cols_) throw std::invalid_argument("Matrix::trace: non-square");
  double acc = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) acc += (*this)(i, i);
  return acc;
}

bool Matrix::approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    if (std::abs(a.data_[i] - b.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      os << (*this)(r, c) << (c + 1 < cols_ ? ", " : "");
    }
    os << (r + 1 < rows_ ? ";\n" : "]");
  }
  return os.str();
}

namespace {
void check_same_size(const Vector& a, const Vector& b, const char* op) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string("Vector: size mismatch in ") + op);
  }
}
}  // namespace

Vector add(const Vector& a, const Vector& b) {
  check_same_size(a, b, "add");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(const Vector& a, const Vector& b) {
  check_same_size(a, b, "sub");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(const Vector& a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

double dot(const Vector& a, const Vector& b) {
  check_same_size(a, b, "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double squared_distance(const Vector& a, const Vector& b) {
  check_same_size(a, b, "squared_distance");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

Vector row_mean(const Matrix& m) {
  if (m.rows() == 0) throw std::invalid_argument("row_mean: empty matrix");
  Vector mean(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) mean[c] += row[c];
  }
  const double inv = 1.0 / static_cast<double>(m.rows());
  for (double& v : mean) v *= inv;
  return mean;
}

Matrix row_covariance(const Matrix& m) {
  if (m.rows() < 2) throw std::invalid_argument("row_covariance: need at least 2 rows");
  const Vector mean = row_mean(m);
  Matrix cov(m.cols(), m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t i = 0; i < m.cols(); ++i) {
      const double di = row[i] - mean[i];
      for (std::size_t j = i; j < m.cols(); ++j) {
        cov(i, j) += di * (row[j] - mean[j]);
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(m.rows() - 1);
  for (std::size_t i = 0; i < m.cols(); ++i) {
    for (std::size_t j = i; j < m.cols(); ++j) {
      cov(i, j) *= inv;
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

}  // namespace sidis::linalg
