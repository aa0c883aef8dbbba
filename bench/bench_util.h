#pragma once

// Shared helpers for the figure benches: optional CSV export so the plots
// behind each reproduced figure can be regenerated with any plotting tool.
//
// Usage:  fig6_scaling --csv /tmp/figs   writes /tmp/figs/fig6.csv etc.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace astro::bench {

/// Parses `--csv <dir>` from argv; empty string when absent.
inline std::string csv_dir_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--csv") return argv[i + 1];
  }
  return {};
}

/// Parses `--json <path>` from argv, falling back to `fallback` (benches
/// default to a BENCH_*.json in the working directory so a plain run always
/// leaves a machine-readable per-operator breakdown behind).
inline std::string json_path_from_args(int argc, char** argv,
                                       std::string fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return fallback;
}

/// Removes `<flag> <value>` from argv in place (google-benchmark's
/// Initialize rejects flags it does not know) and returns the value, or
/// `fallback` when the flag is absent.
inline std::string take_value_arg(int& argc, char** argv,
                                  const std::string& flag,
                                  std::string fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      std::string value = argv[i + 1];
      for (int j = i + 2; j < argc; ++j) argv[j - 2] = argv[j];
      argc -= 2;
      return value;
    }
  }
  return fallback;
}

/// take_value_arg for the common `--json <path>` destination flag.
inline std::string take_json_arg(int& argc, char** argv,
                                 std::string fallback) {
  return take_value_arg(argc, argv, "--json", std::move(fallback));
}

/// Removes a boolean `<flag>` from argv in place; true when it was present.
inline bool take_switch(int& argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      for (int j = i + 1; j < argc; ++j) argv[j - 1] = argv[j];
      argc -= 1;
      return true;
    }
  }
  return false;
}

/// Whole-file read (embedding recorded baselines); empty on any failure.
inline std::string read_file(const std::string& path) {
  if (path.empty()) return {};
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "warning: cannot read %s\n", path.c_str());
    return {};
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  while (!content.empty() &&
         (content.back() == '\n' || content.back() == '\r')) {
    content.pop_back();
  }
  return content;
}

/// Writes `content` to `path`, reporting the destination like CsvSeries.
inline void write_json_file(const std::string& path,
                            const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << content << '\n';
  std::printf("[json] wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

/// Accumulates rows and writes them as `<dir>/<name>.csv` on destruction
/// (no-op when dir is empty).
class CsvSeries {
 public:
  CsvSeries(std::string dir, std::string name, std::vector<std::string> header)
      : dir_(std::move(dir)), name_(std::move(name)) {
    if (dir_.empty()) return;
    rows_.emplace_back();
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (i) rows_.back() += ',';
      rows_.back() += header[i];
    }
  }

  void row(const std::vector<double>& values) {
    if (dir_.empty()) return;
    std::string line;
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g", values[i]);
      if (i) line += ',';
      line += buf;
    }
    rows_.push_back(std::move(line));
  }

  ~CsvSeries() {
    if (dir_.empty() || rows_.size() <= 1) return;
    const std::string path = dir_ + "/" + name_ + ".csv";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    for (const auto& r : rows_) out << r << '\n';
    std::printf("[csv] wrote %s (%zu rows)\n", path.c_str(), rows_.size() - 1);
  }

 private:
  std::string dir_;
  std::string name_;
  std::vector<std::string> rows_;
};

}  // namespace astro::bench
