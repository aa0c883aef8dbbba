#include "spectra/generator.h"

#include <gtest/gtest.h>

#include "pca/batch_pca.h"
#include "pca/subspace.h"
#include "spectra/line_catalog.h"

namespace astro::spectra {
namespace {

TEST(LineCatalog, OrderedAndPlausible) {
  const auto lines = line_catalog();
  EXPECT_GE(lines.size(), 15u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_GT(lines[i].rest_wavelength, lines[i - 1].rest_wavelength);
  }
  for (const auto& l : lines) {
    EXPECT_GT(l.rest_wavelength, 3000.0);
    EXPECT_LT(l.rest_wavelength, 10000.0);
    EXPECT_GT(l.typical_strength, 0.0);
    EXPECT_GT(l.width, 0.0);
  }
}

TEST(LineCatalog, GroupsAreSubsets) {
  EXPECT_EQ(balmer_emission_lines().size(), 4u);
  for (const auto& l : balmer_emission_lines()) {
    EXPECT_EQ(l.kind, LineKind::kEmission);
  }
  for (const auto& l : stellar_absorption_lines()) {
    EXPECT_EQ(l.kind, LineKind::kAbsorption);
  }
}

TEST(Generator, ConfigValidation) {
  SpectraConfig bad;
  bad.pixels = 8;
  EXPECT_THROW(GalaxySpectrumGenerator{bad}, std::invalid_argument);
  bad = SpectraConfig{};
  bad.components = 1;
  EXPECT_THROW(GalaxySpectrumGenerator{bad}, std::invalid_argument);
  bad = SpectraConfig{};
  bad.components = 9;
  EXPECT_THROW(GalaxySpectrumGenerator{bad}, std::invalid_argument);
  bad = SpectraConfig{};
  bad.lambda_min = 9000.0;
  bad.lambda_max = 4000.0;
  EXPECT_THROW(GalaxySpectrumGenerator{bad}, std::invalid_argument);
}

TEST(Generator, WavelengthGridIsLogUniformAscending) {
  SpectraConfig cfg;
  cfg.pixels = 100;
  GalaxySpectrumGenerator gen(cfg);
  const auto& w = gen.wavelengths();
  EXPECT_NEAR(w[0], cfg.lambda_min, 1e-9);
  EXPECT_NEAR(w[99], cfg.lambda_max, 1e-6);
  // Constant ratio between adjacent pixels (log-uniform).
  const double ratio = w[1] / w[0];
  for (std::size_t i = 2; i < 100; ++i) {
    EXPECT_NEAR(w[i] / w[i - 1], ratio, 1e-9);
  }
}

TEST(Generator, TrueBasisIsOrthonormal) {
  GalaxySpectrumGenerator gen(SpectraConfig{});
  EXPECT_LT(linalg::orthonormality_error(gen.true_basis()), 1e-10);
  EXPECT_EQ(gen.true_basis().cols(), 5u);
}

TEST(Generator, DeterministicForSeed) {
  SpectraConfig cfg;
  cfg.seed = 99;
  GalaxySpectrumGenerator a(cfg), b(cfg);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(linalg::approx_equal(a.next().flux, b.next().flux, 0.0));
  }
}

TEST(Generator, BatchPcaRecoversTrueSubspace) {
  // The defining property of the workload: its manifold really is the
  // declared low-rank basis.
  SpectraConfig cfg;
  cfg.pixels = 200;
  cfg.components = 4;
  cfg.noise = 0.005;
  GalaxySpectrumGenerator gen(cfg);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 3000; ++i) data.push_back(gen.next().flux);
  const pca::EigenSystem s = pca::batch_pca(data, 4);
  EXPECT_GT(pca::subspace_affinity(s.basis(), gen.true_basis()), 0.99);
}

TEST(Generator, RedshiftCreatesRedEndGaps) {
  SpectraConfig cfg;
  cfg.max_redshift = 0.3;
  cfg.seed = 4;
  GalaxySpectrumGenerator gen(cfg);
  std::size_t gappy = 0;
  for (int i = 0; i < 200; ++i) {
    const auto s = gen.next();
    if (s.mask.empty()) continue;
    ++gappy;
    // Gaps are contiguous at the red end.
    bool seen_gap = false;
    for (std::size_t p = 0; p < s.mask.size(); ++p) {
      if (!s.mask[p]) seen_gap = true;
      if (seen_gap) {
        EXPECT_FALSE(s.mask[p]) << "non-contiguous gap";
      }
    }
    EXPECT_GT(s.redshift, 0.0);
  }
  EXPECT_GT(gappy, 100u);  // most draws at z_max=0.3 lose some red pixels
}

TEST(Generator, OutlierFractionRespected) {
  SpectraConfig cfg;
  cfg.outlier_fraction = 0.2;
  cfg.seed = 5;
  GalaxySpectrumGenerator gen(cfg);
  int outliers = 0;
  for (int i = 0; i < 1000; ++i) {
    if (gen.next().is_outlier) ++outliers;
  }
  EXPECT_NEAR(double(outliers) / 1000.0, 0.2, 0.05);
}

TEST(Generator, OutliersAreFarFromManifold) {
  SpectraConfig cfg;
  cfg.outlier_fraction = 1.0;
  cfg.outlier_amplitude = 30.0;
  GalaxySpectrumGenerator gen(cfg);
  const auto s = gen.next();
  ASSERT_TRUE(s.is_outlier);
  EXPECT_NEAR(linalg::distance(s.flux, gen.mean_spectrum()), 30.0, 1e-9);
}

TEST(Generator, NextCleanFluxHasNoGapsOrOutliers) {
  SpectraConfig cfg;
  cfg.outlier_fraction = 1.0;
  cfg.max_redshift = 0.5;
  GalaxySpectrumGenerator gen(cfg);
  const linalg::Vector flux = gen.next_clean_flux();
  // Clean flux is near the manifold: residual against the true basis small.
  linalg::Vector y = flux - gen.mean_spectrum();
  const linalg::Vector c = gen.true_basis().transpose() * y;
  double r2 = y.squared_norm() - c.squared_norm();
  EXPECT_LT(std::sqrt(std::max(0.0, r2)),
            3.0 * cfg.noise * std::sqrt(double(cfg.pixels)));
}

TEST(Roughness, NoiseRougherThanSmooth) {
  // Smooth sinusoid vs white noise.
  linalg::Vector smooth(200), noise(200);
  stats::Rng rng(17);
  for (std::size_t i = 0; i < 200; ++i) {
    smooth[i] = std::sin(double(i) * 0.1);
    noise[i] = rng.gaussian();
  }
  EXPECT_LT(roughness(smooth), 0.01);
  EXPECT_GT(roughness(noise), 1.0);
  EXPECT_EQ(roughness(linalg::Vector(2)), 0.0);
}

TEST(Generator, EigenspectraShowLineFeatures) {
  // The Balmer component must peak at H-alpha: physical structure in the
  // right place.
  SpectraConfig cfg;
  cfg.pixels = 400;
  GalaxySpectrumGenerator gen(cfg);
  const auto& w = gen.wavelengths();
  const auto& basis = gen.true_basis();
  // Find the pixel nearest H-alpha.
  std::size_t ha = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (std::abs(w[i] - 6563.0) < std::abs(w[ha] - 6563.0)) ha = i;
  }
  // Column 1 (Balmer emission) has a local extremum near H-alpha that
  // dominates a random far-from-line pixel.
  double at_line = std::abs(basis(ha, 1));
  double off_line = std::abs(basis(w.size() / 3, 1));  // ~5200 A, line-free-ish
  EXPECT_GT(at_line, 3.0 * off_line);
}

}  // namespace
}  // namespace astro::spectra
