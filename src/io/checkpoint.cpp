#include "io/checkpoint.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace astro::io {

namespace {

constexpr std::uint32_t kMagic = 0x41535043;  // "ASPC"
constexpr std::uint32_t kVersion = 1;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("checkpoint: truncated input");
  return v;
}
double read_f64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("checkpoint: truncated input");
  return v;
}

}  // namespace

void save_eigensystem(std::ostream& out, const pca::EigenSystem& system,
                      double alpha) {
  write_u64(out, (std::uint64_t(kMagic) << 32) | kVersion);
  write_u64(out, system.dim());
  write_u64(out, system.rank());
  write_u64(out, system.observations());
  write_f64(out, alpha);
  write_f64(out, system.sigma2());
  write_f64(out, system.sums().u());
  write_f64(out, system.sums().v());
  write_f64(out, system.sums().q());
  for (double v : system.mean()) write_f64(out, v);
  for (double v : system.eigenvalues()) write_f64(out, v);
  // The basis goes to disk row-major d x p: pixel r of every eigenvector,
  // pixel by pixel.
  const linalg::Matrix& vectors = system.vectors();
  for (std::size_t r = 0; r < system.dim(); ++r) {
    for (std::size_t c = 0; c < system.rank(); ++c) {
      write_f64(out, vectors(c, r));
    }
  }
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

pca::EigenSystem load_eigensystem(std::istream& in, double* alpha_out) {
  const std::uint64_t header = read_u64(in);
  if ((header >> 32) != kMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  if ((header & 0xFFFFFFFFull) != kVersion) {
    throw std::runtime_error("checkpoint: unsupported version");
  }
  const std::size_t d = std::size_t(read_u64(in));
  const std::size_t p = std::size_t(read_u64(in));
  const std::uint64_t observations = read_u64(in);
  const double alpha = read_f64(in);
  const double sigma2 = read_f64(in);
  const double u = read_f64(in);
  const double v = read_f64(in);
  const double q = read_f64(in);
  if (d == 0 || p > d || d > (1u << 24)) {
    throw std::runtime_error("checkpoint: implausible shapes");
  }
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::runtime_error("checkpoint: invalid alpha");
  }

  linalg::Vector mean(d);
  for (auto& x : mean) x = read_f64(in);
  linalg::Vector lambda(p);
  for (auto& x : lambda) x = read_f64(in);
  linalg::Matrix basis(d, p);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < p; ++c) basis(r, c) = read_f64(in);
  }

  stats::RobustRunningSums sums(alpha);
  sums.restore(u, v, q);
  if (alpha_out != nullptr) *alpha_out = alpha;
  return pca::EigenSystem(std::move(mean), std::move(basis), std::move(lambda),
                          sigma2, sums, observations);
}

void save_eigensystem_file(const std::string& path,
                           const pca::EigenSystem& system, double alpha) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("checkpoint: cannot open " + path);
  save_eigensystem(out, system, alpha);
}

pca::EigenSystem load_eigensystem_file(const std::string& path,
                                       double* alpha_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  return load_eigensystem(in, alpha_out);
}

}  // namespace astro::io
