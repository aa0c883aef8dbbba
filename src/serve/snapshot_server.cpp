#include "serve/snapshot_server.h"

namespace astro::serve {

const char* to_string(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kNoVersion:
      return "no_version";
    case QueryStatus::kOverloaded:
      return "overloaded";
    case QueryStatus::kBadDimension:
      return "bad_dimension";
    case QueryStatus::kBadRank:
      return "bad_rank";
  }
  return "unknown";
}

SnapshotServer::SnapshotServer(ServeConfig config)
    : config_(config), admission_(config.max_in_flight) {}

std::uint64_t SnapshotServer::publish(pca::EigenSystem system, int engine,
                                      std::int64_t published_us) {
  std::lock_guard lock(writer_mutex_);
  const std::uint64_t v =
      version_counter_.load(std::memory_order_relaxed) + 1;
  // Counter first, pointer second: version() is then always >= any version
  // number a reader can observe through the slot, so "observed version <=
  // latest published" holds at every instant.
  version_counter_.store(v, std::memory_order_release);
  current_.store(std::make_shared<const EigenSystemVersion>(
      v, engine, published_us, std::move(system)));
  return v;
}

QueryStatus SnapshotServer::project(const linalg::Vector& spectrum,
                                    QueryWorkspace& ws,
                                    ProjectionResult& out) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  AdmissionTicket ticket(admission_);
  if (!ticket.ok()) {
    metrics_.record_dropped();
    return QueryStatus::kOverloaded;
  }
  const std::uint64_t t0 = stream::OperatorMetrics::now_ns();
  metrics_.record_in();
  const auto v = current();
  if (!v) return QueryStatus::kNoVersion;
  const pca::EigenSystem& sys = v->system();
  if (spectrum.size() != sys.dim()) return QueryStatus::kBadDimension;
  ws.centered.resize_no_shrink(sys.dim());
  sys.center_into(spectrum, ws.centered);
  sys.coefficients_into(ws.centered, sys.rank(), out.coefficients);
  out.version = v->version();
  out.engine = v->engine();
  out.observations = v->observations();
  metrics_.record_out();
  metrics_.record_proc_ns(stream::OperatorMetrics::now_ns() - t0);
  return QueryStatus::kOk;
}

QueryStatus SnapshotServer::residual_score(const linalg::Vector& spectrum,
                                           QueryWorkspace& ws,
                                           ResidualResult& out) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  AdmissionTicket ticket(admission_);
  if (!ticket.ok()) {
    metrics_.record_dropped();
    return QueryStatus::kOverloaded;
  }
  const std::uint64_t t0 = stream::OperatorMetrics::now_ns();
  metrics_.record_in();
  const auto v = current();
  if (!v) return QueryStatus::kNoVersion;
  const pca::EigenSystem& sys = v->system();
  if (spectrum.size() != sys.dim()) return QueryStatus::kBadDimension;
  out.squared_residual =
      sys.squared_residual(spectrum, ws.centered, ws.coefficients);
  out.sigma2 = sys.sigma2();
  out.score = out.sigma2 > 0.0 ? out.squared_residual / out.sigma2 : 0.0;
  out.anomalous = config_.anomaly_threshold > 0.0 &&
                  out.score > config_.anomaly_threshold;
  out.version = v->version();
  out.engine = v->engine();
  out.observations = v->observations();
  metrics_.record_out();
  metrics_.record_proc_ns(stream::OperatorMetrics::now_ns() - t0);
  return QueryStatus::kOk;
}

QueryStatus SnapshotServer::top_k_components(
    std::size_t k, std::shared_ptr<const TopKResult>& out) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  AdmissionTicket ticket(admission_);
  if (!ticket.ok()) {
    metrics_.record_dropped();
    return QueryStatus::kOverloaded;
  }
  const std::uint64_t t0 = stream::OperatorMetrics::now_ns();
  metrics_.record_in();
  const auto v = current();
  if (!v) return QueryStatus::kNoVersion;
  if (k == 0 || k > v->rank()) return QueryStatus::kBadRank;
  if (const TopKResult* cached = v->cached_top_k(k)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    // Aliasing shared_ptr: the caller's handle keeps the whole version —
    // the entry's owner — alive, and the hit path stays allocation-free.
    out = std::shared_ptr<const TopKResult>(v, cached);
    metrics_.record_out();
    metrics_.record_proc_ns(stream::OperatorMetrics::now_ns() - t0);
    return QueryStatus::kOk;
  }
  // Cold slot: build the answer from the immutable version and install it.
  // The first install wins (write-once CAS); a concurrent reader racing
  // the same (version, k) builds an identical value, and the loser's copy
  // is discarded, so every caller ends up sharing one resident entry.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  const pca::EigenSystem& sys = v->system();
  auto fresh = std::make_unique<TopKResult>();
  fresh->version = v->version();
  fresh->engine = v->engine();
  fresh->observations = v->observations();
  fresh->sigma2 = sys.sigma2();
  fresh->eigenvalues = linalg::Vector(k);
  fresh->components = linalg::Matrix(sys.dim(), k);
  double retained = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    fresh->eigenvalues[i] = sys.eigenvalues()[i];
    retained += sys.eigenvalues()[i];
    const auto e = sys.vectors().row_span(i);
    for (std::size_t r = 0; r < sys.dim(); ++r) fresh->components(r, i) = e[r];
  }
  fresh->retained_variance = retained;
  const TopKResult* resident = v->install_top_k(k, std::move(fresh));
  out = std::shared_ptr<const TopKResult>(v, resident);
  metrics_.record_out();
  metrics_.record_proc_ns(stream::OperatorMetrics::now_ns() - t0);
  return QueryStatus::kOk;
}

}  // namespace astro::serve
