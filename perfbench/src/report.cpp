#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * double(samples.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - double(lo));
}

std::size_t samples_beyond(std::size_t n, double percentile) {
  // The p-th percentile is the sample of rank ceil(p/100 * n); everything
  // ranked after it lies beyond.  Integer hundredths of a percent keep the
  // rank exact for the tabulated percentiles.
  const auto hundredths = static_cast<std::uint64_t>(std::llround(percentile * 100.0));
  const std::uint64_t rank = (std::uint64_t(n) * hundredths + 9999) / 10000;
  return rank >= n ? 0 : std::size_t(n - rank);
}

bool percentile_supported(std::size_t n, double percentile) {
  return samples_beyond(n, percentile) >= 10;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name: " + name);
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("metric reported twice: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for metric " + name);
  }
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::add_p50_p99(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  if (!percentile_supported(samples.size(), 99.0)) {
    throw std::runtime_error(name + ": " + std::to_string(samples.size()) +
                             " samples cannot support a p99");
  }
  add(name + "_p50", quantile(samples, 0.50), unit, samples.size());
  add(name + "_p99", quantile(samples, 0.99), unit, samples.size());
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::table() const {
  std::string out;
  char line[192];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %-6s (n=%zu)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    out += line;
  }
  return out;
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint32_t Tracer::name_id(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return std::uint32_t(names_.size() - 1);
}

std::uint32_t Tracer::record(std::uint32_t name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint32_t parent) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back({name, parent, start_ns, end_ns});
  return std::uint32_t(spans_.size() - 1);
}

void Tracer::close(std::uint32_t id, std::int64_t end_ns) {
  if (id < spans_.size()) spans_[id].end_ns = end_ns;
}

std::vector<double> Tracer::durations_us(std::uint32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(double(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << names_[s.name]
      << "\",\"parent\":";
    if (s.parent == kNoParent) {
      f << "null";
    } else {
      f << s.parent;
    }
    f << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return bool(f);
}

}  // namespace perfbench
