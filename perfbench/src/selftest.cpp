// Self-tests of the benchmark's own helpers: the percentile rule, the
// metric-name grammar, the quantile interpolation, the result line and
// the workload table.  Exit status 0 when every check holds.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  // Ten samples beyond the p99 need at least 1000 samples.
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  expect(percentile_supported(1000, 99.0), "p99 supported at n=1000");
  expect(!percentile_supported(999, 99.0), "p99 unsupported at n=999");
  expect(percentile_supported(20, 50.0), "p50 supported at n=20");
  expect(!percentile_supported(19, 50.0), "p50 unsupported at n=19");
  expect(percentile_supported(100, 90.0), "p90 supported at n=100");
  expect(!percentile_supported(10000, 99.99), "p99.99 unsupported at n=1e4");
  expect(percentile_supported(100000, 99.99), "p99.99 supported at n=1e5");
  expect(samples_beyond(0, 50.0) == 0, "nothing beyond the median of nothing");

  Report r;
  expect(throws([&] { r.add_p50_p99("x_us", std::vector<double>(999, 1.0), "us"); }),
         "add_p50_p99 refuses 999 samples");
  std::vector<double> s(1000);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = double(i);
  r.add_p50_p99("lat_us", s, "us");
  expect(r.find("lat_us_p50") && r.find("lat_us_p50")->samples == 1000,
         "p50 reports its sample count");
  expect(r.find("lat_us_p99") && std::abs(r.find("lat_us_p99")->value - 989.01) < 1e-9,
         "p99 of 0..999 interpolates to 989.01");
}

void quantiles() {
  expect(quantile({}, 0.5) == 0.0, "quantile of nothing is 0");
  expect(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0, "median of unsorted input");
  expect(quantile({1.0, 2.0}, 0.5) == 1.5, "median interpolates");
  expect(quantile({1.0, 2.0, 3.0, 4.0}, 1.0) == 4.0, "q=1 is the maximum");
}

void name_grammar() {
  for (const std::string& ok : std::vector<std::string>{
           "applied_tps", "linalg.svd_left_us_p50", "ledger.pca-0.explained",
        "9lives", std::string(64, 'a')}) {
    expect(valid_metric_name(ok), "accepts " + ok);
  }
  for (const std::string& bad : std::vector<std::string>{
           "", "_lead", ".dot", "-dash", "has space", "slash/name", "p99%",
        std::string(65, 'a')}) {
    expect(!valid_metric_name(bad), "rejects '" + bad + "'");
  }
  Report r;
  expect(throws([&] { r.add("bad name", 1.0, "s"); }), "add refuses a bad name");
  r.add("x", 1.0, "s");
  expect(throws([&] { r.add("x", 2.0, "s"); }), "add refuses a repeated name");
  expect(throws([&] { r.add("y", std::nan(""), "s"); }), "add refuses NaN");
}

void result_line() {
  Report r;
  r.add("latency_ms", 1.25, "ms", 7);
  r.add("setup_s", 0.5, "s");
  expect(r.result_line(true, 10, 1) ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line layout");
}

void workload_table() {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec a = workload_spec(name, 7);
    const WorkloadSpec b = workload_spec(name, 8);
    expect(a.spectra.seed == 7 && b.spectra.seed == 8,
           name + ": the seed reaches the generator");
    expect(a.pipeline.pca.dim == a.spectra.pixels, name + ": dim matches");
    expect(a.tuples > 0 && a.pool > 0, name + ": sized");
    const Inputs in7 = make_inputs(a);
    const Inputs in7_again = make_inputs(a);
    const Inputs in8 = make_inputs(b);
    expect(in7.pool.size() == a.pool, name + ": pool size");
    expect(in7.pool[0].values == in7_again.pool[0].values &&
               in7.pool.back().values == in7_again.pool.back().values,
           name + ": same seed, same inputs");
    expect(!(in7.pool[0].values == in8.pool[0].values),
           name + ": another seed, other inputs");
  }
  expect(throws([] { (void)workload_spec("nope", 1); }),
         "unknown workload is refused");
}

}  // namespace

int main() {
  percentile_rule();
  quantiles();
  name_grammar();
  result_line();
  workload_table();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d self-test checks failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
