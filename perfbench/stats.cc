#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/protocol.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  int64_t rank = n - SamplesBeyond(n, p);
  rank = std::clamp<int64_t>(rank, 1, n);
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> s = samples;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  // Round before the ceiling so 0.9 * 100 counts as exactly 90.
  const double position = std::round(p / 100.0 * n * 1e9) / 1e9;
  return n - static_cast<int64_t>(std::ceil(position));
}

double HighestReportablePercentile(int64_t n, int64_t min_tail) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= min_tail) return p;
  }
  return 0.0;
}

double PeakRssMbSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DatasetHash(const aim::Dataset& data) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(data.num_records()));
  for (int a = 0; a < data.domain().num_attributes(); ++a) {
    for (int32_t v : data.column(a)) mix(static_cast<uint32_t>(v));
  }
  return h;
}

std::string CheckMechanismResult(const aim::MechanismResult& result,
                                 const aim::Domain& domain) {
  if (!(result.rho_used <= result.rho_budget)) {
    return "rho_used " + std::to_string(result.rho_used) +
           " exceeds rho_budget " + std::to_string(result.rho_budget);
  }
  for (size_t i = 1; i < result.rho_ledger.size(); ++i) {
    if (result.rho_ledger[i] < result.rho_ledger[i - 1]) {
      return "rho ledger decreases at entry " + std::to_string(i);
    }
  }
  const aim::Dataset& synth = result.synthetic;
  const int64_t expected = std::llround(result.total_estimate);
  if (synth.num_records() != expected) {
    return "synthetic data has " + std::to_string(synth.num_records()) +
           " rows, expected llround(total_estimate) = " +
           std::to_string(expected);
  }
  if (!(synth.domain() == domain)) return "synthetic data domain differs";
  for (int a = 0; a < domain.num_attributes(); ++a) {
    const int size = domain.size(a);
    for (int32_t v : synth.column(a)) {
      if (v < 0 || v >= size) {
        return "synthetic value " + std::to_string(v) +
               " outside the domain of attribute " + domain.name(a);
      }
    }
  }
  return "";
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += aim::JsonQuote(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + aim::JsonQuote(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
