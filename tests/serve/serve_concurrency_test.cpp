// Concurrency stress for the serving layer — the TSan-targeted suite
// (tsan-serve preset): 8 reader threads hammer all three query APIs while
// the writer publishes new versions at full rate.
//
// Determinism comes from the *content*, not the interleaving: every
// published eigensystem is a pure function of its version number, so a
// reader can prove the internal consistency of ANY answer it receives —
// rank, observation counter, mean, basis, eigenvalues and sigma2 must all
// agree with the version tag the answer carries, no matter which swap it
// raced.  The assertions are collected per reader thread and checked on
// the main thread after the join (gtest EXPECTs are not thread-safe).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/snapshot_server.h"

namespace astro::serve {
namespace {

constexpr std::size_t kDim = 16;
constexpr std::uint64_t kPublishes = 400;
constexpr std::size_t kReaders = 8;

/// Version-derived ground truth, mirrored by make_versioned_system().
std::size_t rank_of(std::uint64_t v) { return 1 + std::size_t(v % 3); }
std::uint64_t observations_of(std::uint64_t v) { return v * 1000 + 7; }
double mean_of(std::uint64_t v) { return double(v); }
double sigma2_of(std::uint64_t v) { return 1.0 + double(v); }
double eigenvalue_of(std::uint64_t v, std::size_t i) {
  return double(v * 10 + (rank_of(v) - i));
}

/// An eigensystem that is a pure function of its version number: mean is
/// constant v, the basis is the first rank(v) identity columns, the
/// spectrum and sigma2 encode v.  Readers can verify every field of every
/// answer from the version tag alone.
pca::EigenSystem make_versioned_system(std::uint64_t v) {
  const std::size_t p = rank_of(v);
  pca::EigenSystem sys(kDim, p, 1.0);
  for (std::size_t r = 0; r < kDim; ++r) sys.mutable_mean()[r] = mean_of(v);
  sys.mutable_vectors().fill(0.0);
  for (std::size_t i = 0; i < p; ++i) sys.mutable_vectors()(i, i) = 1.0;
  for (std::size_t i = 0; i < p; ++i) {
    sys.mutable_eigenvalues()[i] = eigenvalue_of(v, i);
  }
  sys.set_sigma2(sigma2_of(v));
  sys.set_observations(observations_of(v));
  return sys;
}

struct ReaderReport {
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t cache_answers = 0;
  std::vector<std::string> failures;  // empty on success

  void fail(std::string what) {
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
  void check(bool cond, const char* what, std::uint64_t v) {
    if (!cond) fail(std::string(what) + " @ version " + std::to_string(v));
  }
};

TEST(ServeConcurrency, ReadersStayConsistentUnderFullRateWriter) {
  SnapshotServer server;  // default budget 64 admits all 8 readers

  // Fixed query point x[r] = r: projection coefficients against version v
  // are exactly i - v, and the residual decomposes in closed form.
  linalg::Vector x(kDim);
  for (std::size_t r = 0; r < kDim; ++r) x[r] = double(r);

  std::atomic<bool> writer_done{false};
  std::vector<ReaderReport> reports(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);

  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ReaderReport& rep = reports[t];
      QueryWorkspace ws;
      ProjectionResult proj;
      ResidualResult res;
      std::shared_ptr<const TopKResult> topk;
      std::uint64_t last_version = 0;  // per-reader monotonicity witness

      auto note_version = [&](std::uint64_t v) {
        rep.check(v >= last_version, "version regressed", v);
        rep.check(v <= server.version(), "version ahead of counter", v);
        last_version = v > last_version ? v : last_version;
      };

      // Keep hammering until the writer finishes, then one final sweep so
      // every reader also exercises the last version.
      bool final_pass = false;
      while (true) {
        // project: coefficients[i] = x[i] - v against identity basis.
        switch (server.project(x, ws, proj)) {
          case QueryStatus::kOk: {
            ++rep.ok;
            const std::uint64_t v = proj.version;
            note_version(v);
            rep.check(proj.observations == observations_of(v),
                      "project observations mismatch", v);
            rep.check(proj.coefficients.size() == rank_of(v),
                      "project rank mismatch", v);
            for (std::size_t i = 0; i < proj.coefficients.size(); ++i) {
              const double expect = double(i) - mean_of(v);
              rep.check(std::abs(proj.coefficients[i] - expect) < 1e-9,
                        "project coefficient torn", v);
            }
            break;
          }
          case QueryStatus::kOverloaded:
            ++rep.overloaded;
            break;
          case QueryStatus::kNoVersion:
            break;  // before the first publish
          default:
            rep.fail("project: unexpected status");
        }

        // residual: |x - mu|^2 - sum_i (x[i] - v)^2 over the identity
        // basis columns, scored against sigma2(v).
        switch (server.residual_score(x, ws, res)) {
          case QueryStatus::kOk: {
            ++rep.ok;
            const std::uint64_t v = res.version;
            note_version(v);
            const std::size_t p = rank_of(v);
            double total = 0.0, captured = 0.0;
            for (std::size_t r = 0; r < kDim; ++r) {
              const double c = double(r) - mean_of(v);
              total += c * c;
              if (r < p) captured += c * c;
            }
            const double expect_r2 = total - captured;
            rep.check(std::abs(res.squared_residual - expect_r2) <
                          1e-6 * (1.0 + expect_r2),
                      "residual torn", v);
            rep.check(std::abs(res.sigma2 - sigma2_of(v)) < 1e-12,
                      "sigma2 mismatch", v);
            rep.check(std::abs(res.score - expect_r2 / sigma2_of(v)) <
                          1e-6,
                      "score mismatch", v);
            rep.check(res.observations == observations_of(v),
                      "residual observations mismatch", v);
            break;
          }
          case QueryStatus::kOverloaded:
            ++rep.overloaded;
            break;
          case QueryStatus::kNoVersion:
            break;
          default:
            rep.fail("residual: unexpected status");
        }

        // top-k (k = 1, always within rank): a cache answer must carry its
        // own version's eigenvalues — a stale hit would show another
        // version's spectrum under this version's tag.
        switch (server.top_k_components(1, topk)) {
          case QueryStatus::kOk: {
            ++rep.ok;
            ++rep.cache_answers;
            const std::uint64_t v = topk->version;
            note_version(v);
            rep.check(topk->observations == observations_of(v),
                      "topk observations mismatch", v);
            rep.check(topk->eigenvalues.size() == 1, "topk size", v);
            rep.check(std::abs(topk->eigenvalues[0] - eigenvalue_of(v, 0)) <
                          1e-12,
                      "topk eigenvalue stale", v);
            rep.check(topk->components.rows() == kDim &&
                          topk->components.cols() == 1,
                      "topk shape", v);
            // Identity basis: component 0 is e_0.
            rep.check(std::abs(topk->components(0, 0) - 1.0) < 1e-12,
                      "topk component stale", v);
            rep.check(std::abs(topk->retained_variance -
                               eigenvalue_of(v, 0)) < 1e-12,
                      "topk retained stale", v);
            break;
          }
          case QueryStatus::kOverloaded:
            ++rep.overloaded;
            break;
          case QueryStatus::kNoVersion:
            break;
          default:
            rep.fail("topk: unexpected status");
        }

        if (final_pass) break;
        if (writer_done.load(std::memory_order_acquire)) final_pass = true;
      }
    });
  }

  // Writer at full rate: no pacing between publishes.
  for (std::uint64_t v = 1; v <= kPublishes; ++v) {
    const std::uint64_t got =
        server.publish(make_versioned_system(v), int(v % 4), std::int64_t(v));
    ASSERT_EQ(got, v);
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  std::uint64_t total_ok = 0;
  for (std::size_t t = 0; t < kReaders; ++t) {
    for (const auto& f : reports[t].failures) {
      ADD_FAILURE() << "reader " << t << ": " << f;
    }
    total_ok += reports[t].ok;
    // Every reader ran its final sweep against a published version, so
    // every reader got at least one successful answer per API.
    EXPECT_GE(reports[t].ok, 3u) << "reader " << t;
  }
  EXPECT_EQ(server.version(), kPublishes);
  const auto final_v = server.current();
  ASSERT_NE(final_v, nullptr);
  EXPECT_EQ(final_v->version(), kPublishes);
  // Bookkeeping closes: nothing in flight once everyone left, and the
  // query counter saw every reader attempt.
  EXPECT_EQ(server.admission().in_flight(), 0u);
  EXPECT_GE(server.queries(), total_ok);
  // The top-k cache actually worked: answers far outnumber misses (each
  // version's k=1 slot is built once, then shared).
  EXPECT_GE(server.cache_hits() + server.cache_misses(), kReaders);
}

TEST(ServeConcurrency, AdmissionAccountingClosesUnderContention) {
  // A tiny budget under heavy contention: some acquires win, some are
  // rejected, and afterwards admitted == releases, in_flight == 0, and
  // admitted + rejected == attempts — no slot is leaked or double-freed.
  AdmissionControl gate(3);
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAttempts = 5000;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> wins{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAttempts; ++i) {
        if (gate.try_acquire()) {
          wins.fetch_add(1, std::memory_order_relaxed);
          gate.release();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gate.in_flight(), 0u);
  EXPECT_EQ(gate.admitted(), wins.load());
  EXPECT_EQ(gate.admitted() + gate.rejected(), kThreads * kAttempts);
  EXPECT_GT(gate.admitted(), 0u);
}

}  // namespace
}  // namespace astro::serve
