#include "scorers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace geo = simsub::geo;

namespace {

enum class Kind { kDtw, kFrechet, kEdr };

Kind KindOf(const std::string& measure) {
  if (measure == "dtw") return Kind::kDtw;
  if (measure == "frechet") return Kind::kFrechet;
  if (measure == "edr") return Kind::kEdr;
  throw std::invalid_argument("no reference scorer for measure " + measure);
}

double PointDistance(const geo::Point& a, const geo::Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

// The DP matrix of (data prefix rows) x (query columns), one row at a time:
// after Push(p) for the r-th data point, Last() is the distance of the
// pushed rows to the whole query.
class RowDp {
 public:
  RowDp(Kind kind, std::span<const geo::Point> q)
      : kind_(kind), q_(q), prev_(q.size()), cur_(q.size()) {}

  void Clear() { rows_ = 0; }

  void Push(const geo::Point& p) {
    const size_t m = q_.size();
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < m; ++c) {
      const double up = rows_ > 0 ? prev_[c] : inf;
      const double left = c > 0 ? cur_[c - 1] : inf;
      double diag = rows_ > 0 && c > 0 ? prev_[c - 1] : inf;
      if (rows_ == 0 && c == 0) diag = 0.0;
      switch (kind_) {
        case Kind::kDtw:
          cur_[c] = PointDistance(p, q_[c]) + std::min({up, left, diag});
          break;
        case Kind::kFrechet:
          cur_[c] = std::max(PointDistance(p, q_[c]), std::min({up, left, diag}));
          break;
        case Kind::kEdr: {
          // Borders of the edit matrix: E[-1][c] = c + 1, E[r][-1] = r + 1.
          const double r = static_cast<double>(rows_);
          const double e_up = rows_ > 0 ? prev_[c] : static_cast<double>(c) + 1.0;
          const double e_left = c > 0 ? cur_[c - 1] : r + 1.0;
          const double e_diag = rows_ > 0 && c > 0 ? prev_[c - 1]
                                : rows_ > 0        ? r
                                                   : static_cast<double>(c);
          const bool match = std::abs(p.x - q_[c].x) <= kEdrEps &&
                             std::abs(p.y - q_[c].y) <= kEdrEps;
          cur_[c] = std::min({e_diag + (match ? 0.0 : 1.0), e_up + 1.0, e_left + 1.0});
          break;
        }
      }
    }
    std::swap(prev_, cur_);
    ++rows_;
  }

  double Last() const { return prev_.back(); }

 private:
  Kind kind_;
  std::span<const geo::Point> q_;
  std::vector<double> prev_;
  std::vector<double> cur_;
  size_t rows_ = 0;
};

}  // namespace

double Score(const std::string& measure, std::span<const geo::Point> a,
             std::span<const geo::Point> q) {
  RowDp dp(KindOf(measure), q);
  for (const geo::Point& p : a) dp.Push(p);
  return dp.Last();
}

BestSub BruteForceBest(const std::string& measure,
                       std::span<const geo::Point> data,
                       std::span<const geo::Point> q) {
  RowDp dp(KindOf(measure), q);
  BestSub best;
  best.distance = std::numeric_limits<double>::infinity();
  const auto n = static_cast<int64_t>(data.size());
  for (int64_t i = 0; i < n; ++i) {
    dp.Clear();
    for (int64_t j = i; j < n; ++j) {
      dp.Push(data[static_cast<size_t>(j)]);
      if (dp.Last() < best.distance) best = {dp.Last(), geo::SubRange(i, j)};
    }
  }
  return best;
}

}  // namespace perfbench
