// Dense row-major matrix and vector utilities.
//
// This is the numerical substrate for PCA, LDA/QDA and the Gaussian template
// machinery.  It is deliberately small and dependency-free: the dimensions in
// the disassembler pipeline are modest (feature vectors of a few hundred
// entries, class counts below a few dozen), so clarity and numerical
// robustness matter more than BLAS-level throughput.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace sidis::linalg {

/// Dense vector of doubles.  A bare alias keeps interop with the rest of the
/// codebase trivial (traces, feature vectors and matrix rows all share it).
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Invariants: `data_.size() == rows_ * cols_` always holds; a
/// default-constructed matrix is the unique 0x0 empty matrix.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a `rows` x `cols` matrix with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from a nested brace list; every inner list must have
  /// the same length.  Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// Diagonal matrix from a vector.
  static Matrix diagonal(const Vector& d);

  /// Builds a matrix whose rows are the given vectors (all must share the
  /// same length).  Used to assemble sample matrices from feature vectors.
  static Matrix from_rows(const std::vector<Vector>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Checked element access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Mutable / immutable view of row `r` (contiguous in memory).
  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

  /// Copies of a single row / column as vectors.
  Vector row_vector(std::size_t r) const;
  Vector col_vector(std::size_t c) const;

  /// Raw storage (row-major).
  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  Matrix transposed() const;

  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix operator*(const Matrix& rhs) const;  ///< matrix product
  Matrix operator*(double s) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Matrix-vector product; `v.size()` must equal `cols()`.
  Vector operator*(const Vector& v) const;

  bool operator==(const Matrix& rhs) const = default;

  /// Largest absolute entry; 0 for the empty matrix.
  double max_abs() const;

  /// Sum of diagonal entries (matrix must be square).
  double trace() const;

  /// True when `|a(i,j) - b(i,j)| <= tol` for all entries and shapes match.
  static bool approx_equal(const Matrix& a, const Matrix& b, double tol);

  /// Human-readable dump for diagnostics (not round-trippable).
  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- free vector helpers (used throughout the pipeline) -------------------

/// Element-wise a + b; sizes must match.
Vector add(const Vector& a, const Vector& b);
/// Element-wise a - b; sizes must match.
Vector sub(const Vector& a, const Vector& b);
/// Scalar multiple.
Vector scale(const Vector& a, double s);
/// Dot product; sizes must match.
double dot(const Vector& a, const Vector& b);
/// Squared Euclidean distance between two vectors.
double squared_distance(const Vector& a, const Vector& b);

/// Arithmetic mean of the rows of `m` (length = cols).
Vector row_mean(const Matrix& m);

/// Sample covariance of the rows of `m` (denominator n-1; n must be >= 2).
Matrix row_covariance(const Matrix& m);

}  // namespace sidis::linalg
