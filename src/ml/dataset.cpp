#include "ml/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace sidis::ml {

void Dataset::validate() const {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("Dataset: row/label count mismatch");
  }
}

linalg::Matrix Dataset::rows_with_label(int label) const {
  std::vector<linalg::Vector> rows;
  for (std::size_t r = 0; r < size(); ++r) {
    if (y[r] == label) rows.push_back(x.row_vector(r));
  }
  return linalg::Matrix::from_rows(rows);
}

std::vector<int> Dataset::labels() const {
  std::vector<int> out = y;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Dataset Dataset::truncated(std::size_t k) const {
  k = std::min(k, dim());
  Dataset out;
  out.y = y;
  out.x = linalg::Matrix(size(), k);
  for (std::size_t r = 0; r < size(); ++r) {
    auto src = x.row(r);
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(k),
              out.x.row(r).begin());
  }
  return out;
}

}  // namespace sidis::ml
