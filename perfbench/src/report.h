#pragma once

// Reporting helpers of the end-to-end benchmark: sample statistics with
// the percentile rule, the metric-name grammar, the result line the
// benchmark prints last, and the in-memory span recorder of traced runs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds; the one timebase of every benchmark timing.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// Samples strictly beyond the p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double percentile);

/// The percentile rule: a percentile is reported only when at least ten
/// samples lie beyond it.
[[nodiscard]] bool percentile_supported(std::size_t n, double percentile);

/// Metric names: [A-Za-z0-9_.-]+, at most 64 characters, first character
/// a letter or a digit.
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// One reported metric.  `samples` is what the value was computed from
/// (jobs for medians, queries for latency percentiles, 1 for a single
/// measurement); it is printed in the table, not in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

class Report {
 public:
  /// Adds a metric; throws std::invalid_argument on a bad or repeated
  /// name.
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  /// Adds `<name>_p50` and `<name>_p99` of `samples`; throws
  /// std::runtime_error when the rule does not support a p99 for them.
  void add_p50_p99(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  /// Human-readable table: name, value, unit and sample count per line.
  [[nodiscard]] std::string table() const;
  /// The single-line result object: correct, attempted, failed, metrics.
  [[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// In-memory span recorder for traced runs: each span is a named interval
/// with the span that caused it.  Spans are kept in a preallocated buffer
/// and written out once, when the benchmark ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Span {
    std::uint32_t name = 0;  ///< index into names()
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(std::size_t capacity = 1u << 20) { spans_.reserve(capacity); }

  /// Interns a span name (call outside timed regions).
  [[nodiscard]] std::uint32_t name_id(const std::string& name);
  /// Records a finished span and returns its id; spans past the capacity
  /// are counted in dropped() instead of growing the buffer (and get the
  /// id kNoParent).
  std::uint32_t record(std::uint32_t name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent = kNoParent);
  /// Sets the end of a span recorded with an open end (a parent whose
  /// children are recorded before it finishes).
  void close(std::uint32_t id, std::int64_t end_ns);
  /// Durations of every recorded span with this name, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(std::uint32_t name) const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Writes the spans as JSON lines ({"id","name","parent","start_ns",
  /// "end_ns"}); returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
