// Answer checks made apart from the program. Each returns "" when the
// property holds and a description of the first violation otherwise; the
// self-test feeds each one a perturbed answer and expects a violation.
#ifndef SIMSUB_PERFBENCH_CHECKS_H_
#define SIMSUB_PERFBENCH_CHECKS_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "geo/trajectory.h"

namespace perfbench {

/// Relative tolerance between a returned distance and its re-score (the
/// library sums DTW rows in a different order than the reference DP).
inline constexpr double kRelTol = 1e-9;

/// Corpus lookup by trajectory id.
class CorpusIndex {
 public:
  explicit CorpusIndex(const std::vector<simsub::geo::Trajectory>& corpus);
  const simsub::geo::Trajectory* Find(int64_t id) const;
  const std::vector<simsub::geo::Trajectory>& corpus() const { return *corpus_; }

 private:
  const std::vector<simsub::geo::Trajectory>* corpus_;
  std::unordered_map<int64_t, size_t> by_id_;
};

/// One answered request, as the checks see it.
struct Answer {
  std::string measure;
  std::string algorithm;
  int k = 0;
  std::span<const simsub::geo::Point> query;
  const simsub::engine::QueryReport* report = nullptr;
};

/// OK status, exactly k entries, strictly ascending in (distance, id,
/// range) order, one entry per trajectory, ranges inside their trajectory.
std::string CheckShape(const Answer& answer, const CorpusIndex& corpus);

/// Every returned distance equals the reference re-score of its range.
/// RLS-Skip's estimated distances are exempt (they are re-scored for the
/// approximation ratio instead of trusted).
std::string CheckDistances(const Answer& answer, const CorpusIndex& corpus);

/// Approximation ratio of `approx` against the exact answer `exact`
/// (re-scored sum over exact sum); violation when below 1.
std::string CheckApproxRatio(const Answer& approx, const Answer& exact,
                             const CorpusIndex& corpus, double* ratio);

/// ExactS over an unfiltered scan equals the brute-force top-k over every
/// subtrajectory of every corpus trajectory.
std::string CheckExactMatchesBruteForce(const Answer& exact,
                                        const CorpusIndex& corpus);

/// Bit-identical results (ids, ranges, distances) and status.
std::string CheckSameResults(const simsub::engine::QueryReport& got,
                             const simsub::engine::QueryReport& want);

/// Feeds every check above a correct answer (expects no violation) and a
/// perturbed one (expects a violation). Returns the failures; empty when
/// every check both accepts and rejects as it should.
std::vector<std::string> SelfTest();

}  // namespace perfbench

#endif  // SIMSUB_PERFBENCH_CHECKS_H_
