// Small measurement helpers shared by the benchmark driver and its
// self-test: clocks, order statistics with the reporting rule for tail
// percentiles, mechanism output checks, and the result line.

#ifndef AIM_PERFBENCH_STATS_H_
#define AIM_PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "mechanisms/mechanism.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank percentile (0 < p <= 100) of a non-empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(const std::vector<double>& samples);

// Samples that lie strictly beyond the nearest-rank p-th percentile of n
// samples: n - ceil(p/100 * n).
int64_t SamplesBeyond(int64_t n, double p);

// The highest of the percentiles 99.9, 99, 90 and 50 that has at least
// `min_tail` samples beyond it among n samples, or 0 when none has.
double HighestReportablePercentile(int64_t n, int64_t min_tail = 10);

// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMbSelf();

// Order-sensitive FNV-1a hash of every value of a dataset (equal datasets
// hash equal; used to compare repeated runs without keeping their output).
uint64_t DatasetHash(const aim::Dataset& data);

// The output checks every mechanism run passes: rho_used <= rho_budget, a
// non-decreasing rho ledger, llround(total_estimate) synthetic rows, and
// every synthetic value inside its attribute's domain. Returns "" when all
// hold, otherwise what failed.
std::string CheckMechanismResult(const aim::MechanismResult& result,
                                 const aim::Domain& domain);

// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's last stdout line: {"correct": ..., "attempted": ...,
// "failed": ..., "metrics": {name: {"value": v, "unit": u}, ...}}, every
// value printed with all its significant digits.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // AIM_PERFBENCH_STATS_H_
