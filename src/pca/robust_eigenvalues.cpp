#include "pca/robust_eigenvalues.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "stats/mscale.h"

namespace astro::pca {

double robust_variance_along(std::span<const linalg::Vector> data,
                             const linalg::Vector& mean,
                             const linalg::Vector& e,
                             const stats::RhoFunction& rho, double delta) {
  if (data.empty()) {
    throw std::invalid_argument("robust_variance_along: no data");
  }
  std::vector<double> proj(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    proj[i] = linalg::dot(e, data[i] - mean);
  }
  // Re-center at the projection median: `mean` may itself be biased along
  // this direction (e.g. a weighted mean pulled by in-span contamination),
  // and an offset would masquerade as scatter.  A robust scale is only
  // meaningful about a robust location.
  std::vector<double> sorted = proj;
  const std::size_t mid = sorted.size() / 2;
  std::nth_element(sorted.begin(), sorted.begin() + std::ptrdiff_t(mid),
                   sorted.end());
  const double center = sorted[mid];
  for (double& p : proj) p -= center;

  stats::MScaleOptions opts;
  opts.delta = delta;
  return stats::m_scale(proj, rho, opts).sigma2;
}

linalg::Vector robust_eigenvalues(std::span<const linalg::Vector> data,
                                  const linalg::Vector& mean,
                                  const linalg::Matrix& vectors,
                                  const stats::RhoFunction& rho, double delta) {
  linalg::Vector out(vectors.rows());
  for (std::size_t k = 0; k < vectors.rows(); ++k) {
    out[k] = robust_variance_along(data, mean, vectors.row(k), rho, delta);
  }
  return out;
}

}  // namespace astro::pca
