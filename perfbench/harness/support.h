// Small measurement helpers shared by the workloads: latency percentiles,
// process CPU time and peak memory, and the metric record every run prints.
#ifndef SIMSUB_PERFBENCH_SUPPORT_H_
#define SIMSUB_PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

/// User + system CPU seconds of the whole process so far (getrusage).
double ProcessCpuSeconds();

/// Peak resident set of the process in MiB (VmHWM).
double PeakRssMb();

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Name -> metric, printed in name order.
using Metrics = std::map<std::string, Metric>;

/// The result line of a run: the last line of standard output.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Metrics& metrics);

}  // namespace perfbench

#endif  // SIMSUB_PERFBENCH_SUPPORT_H_
