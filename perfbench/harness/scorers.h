// Reference scorers written apart from the library: plain full-matrix DP
// for DTW, discrete Frechet and EDR, and a brute-force best-subtrajectory
// search. The checks re-score every returned answer with these, so a bug
// shared by the library's kernels and its search code cannot pass as
// correct.
#ifndef SIMSUB_PERFBENCH_SCORERS_H_
#define SIMSUB_PERFBENCH_SCORERS_H_

#include <span>
#include <string>

#include "geo/point.h"
#include "geo/trajectory.h"

namespace perfbench {

/// The library's default EDR match tolerance (similarity::MeasureOptions).
inline constexpr double kEdrEps = 100.0;

/// Distance of `a` to `q` under "dtw", "frechet" or "edr".
double Score(const std::string& measure, std::span<const simsub::geo::Point> a,
             std::span<const simsub::geo::Point> q);

struct BestSub {
  double distance = 0.0;
  simsub::geo::SubRange range;
};

/// Minimum over every subtrajectory data[i..j] of Score(data[i..j], q),
/// by one DP per start point (O(n^2 m)).
BestSub BruteForceBest(const std::string& measure,
                       std::span<const simsub::geo::Point> data,
                       std::span<const simsub::geo::Point> q);

}  // namespace perfbench

#endif  // SIMSUB_PERFBENCH_SCORERS_H_
