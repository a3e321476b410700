#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "inputs.h"
#include "scorers.h"
#include "service/query_service.h"

namespace perfbench {

namespace engine = simsub::engine;
namespace geo = simsub::geo;

namespace {

bool Close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string Where(const Answer& answer) {
  return answer.measure + "/" + answer.algorithm + ": ";
}

double RescoreEntry(const Answer& answer, const CorpusIndex& corpus,
                    const engine::TopKEntry& entry) {
  const geo::Trajectory* t = corpus.Find(entry.trajectory_id);
  return Score(answer.measure, t->View(entry.range), answer.query);
}

}  // namespace

CorpusIndex::CorpusIndex(const std::vector<geo::Trajectory>& corpus)
    : corpus_(&corpus) {
  for (size_t i = 0; i < corpus.size(); ++i) by_id_[corpus[i].id()] = i;
}

const geo::Trajectory* CorpusIndex::Find(int64_t id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &(*corpus_)[it->second];
}

std::string CheckShape(const Answer& answer, const CorpusIndex& corpus) {
  const engine::QueryReport& r = *answer.report;
  if (!r.status.ok()) return Where(answer) + "status " + r.status.ToString();
  if (static_cast<int>(r.results.size()) != answer.k) {
    return Where(answer) + std::to_string(r.results.size()) + " entries, want " +
           std::to_string(answer.k);
  }
  std::set<int64_t> ids;
  for (size_t i = 0; i < r.results.size(); ++i) {
    const engine::TopKEntry& e = r.results[i];
    const geo::Trajectory* t = corpus.Find(e.trajectory_id);
    if (t == nullptr) return Where(answer) + "unknown trajectory id";
    if (e.range.start < 0 || e.range.start > e.range.end || e.range.end >= t->size()) {
      return Where(answer) + "range outside its trajectory";
    }
    if (!ids.insert(e.trajectory_id).second) {
      return Where(answer) + "trajectory " + std::to_string(e.trajectory_id) +
             " answers twice";
    }
    if (i > 0) {
      const engine::TopKEntry& p = r.results[i - 1];
      if (std::tie(p.distance, p.trajectory_id, p.range.start, p.range.end) >=
          std::tie(e.distance, e.trajectory_id, e.range.start, e.range.end)) {
        return Where(answer) + "entries out of (distance, id, range) order";
      }
    }
  }
  return "";
}

std::string CheckDistances(const Answer& answer, const CorpusIndex& corpus) {
  if (answer.algorithm == "rls-skip") return "";
  for (const engine::TopKEntry& e : answer.report->results) {
    const double rescored = RescoreEntry(answer, corpus, e);
    if (!Close(rescored, e.distance)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << Where(answer) << "trajectory " << e.trajectory_id << " returned "
          << e.distance << ", re-scored " << rescored;
      return msg.str();
    }
  }
  return "";
}

std::string CheckApproxRatio(const Answer& approx, const Answer& exact,
                             const CorpusIndex& corpus, double* ratio) {
  double exact_sum = 0.0;
  for (const engine::TopKEntry& e : exact.report->results) exact_sum += e.distance;
  if (!(exact_sum > 0.0)) return Where(exact) + "exact top-k sums to 0";
  double rescored_sum = 0.0;
  for (const engine::TopKEntry& e : approx.report->results) {
    rescored_sum += RescoreEntry(approx, corpus, e);
  }
  *ratio = rescored_sum / exact_sum;
  if (*ratio < 1.0 - kRelTol) {
    std::ostringstream msg;
    msg.precision(17);
    msg << Where(approx) << "approximation ratio " << *ratio << " < 1";
    return msg.str();
  }
  return "";
}

std::string CheckExactMatchesBruteForce(const Answer& exact,
                                        const CorpusIndex& corpus) {
  std::vector<std::pair<double, int64_t>> best;
  best.reserve(corpus.corpus().size());
  for (const geo::Trajectory& t : corpus.corpus()) {
    best.emplace_back(BruteForceBest(exact.measure, t.View(), exact.query).distance,
                      t.id());
  }
  const auto k = static_cast<size_t>(exact.k);
  std::partial_sort(best.begin(), best.begin() + static_cast<long>(k), best.end());
  const auto& results = exact.report->results;
  if (results.size() != k) return Where(exact) + "brute force: wrong entry count";
  for (size_t i = 0; i < k; ++i) {
    if (results[i].trajectory_id != best[i].second ||
        !Close(results[i].distance, best[i].first)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << Where(exact) << "rank " << i << " is trajectory "
          << results[i].trajectory_id << " at " << results[i].distance
          << ", brute force has " << best[i].second << " at " << best[i].first;
      return msg.str();
    }
  }
  return "";
}

std::string CheckSameResults(const engine::QueryReport& got,
                             const engine::QueryReport& want) {
  if (got.status.code() != want.status.code()) return "status differs";
  if (got.results.size() != want.results.size()) return "entry count differs";
  for (size_t i = 0; i < got.results.size(); ++i) {
    const engine::TopKEntry& a = got.results[i];
    const engine::TopKEntry& b = want.results[i];
    if (a.trajectory_id != b.trajectory_id || !(a.range == b.range) ||
        a.distance != b.distance) {
      return "entry " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::vector<std::string> SelfTest() {
  namespace service = simsub::service;
  simsub::data::Dataset dataset = MakeCorpus(60, 7);
  std::vector<geo::Trajectory> queries = MakeHeldOutQueries(1, 30, 30, 8);
  const std::vector<geo::Trajectory> corpus = dataset.trajectories;
  CorpusIndex index(corpus);
  service::ServiceOptions options;
  options.threads = 1;
  service::QueryService svc(engine::SimSubEngine(std::move(dataset.trajectories)),
                            options);
  auto run = [&](const std::string& algorithm) {
    service::QuerySpec spec;
    spec.points = queries[0].View();
    spec.measure = "dtw";
    spec.algorithm = algorithm;
    spec.k = 5;
    spec.filter = engine::PruningFilter::kNone;
    return svc.RunOne(spec);
  };
  const engine::QueryReport exact_report = run("exacts");
  const engine::QueryReport approx_report = run("pss");
  auto answer = [&](const std::string& algorithm, const engine::QueryReport& r) {
    return Answer{"dtw", algorithm, 5, queries[0].View(), &r};
  };

  std::vector<std::string> failures;
  auto expect = [&](const std::string& name, const std::string& clean,
                    const std::string& perturbed) {
    if (!clean.empty()) failures.push_back(name + " rejects a correct answer: " + clean);
    if (perturbed.empty()) failures.push_back(name + " accepts a perturbed answer");
  };
  auto perturbed = [&](auto&& edit) {
    engine::QueryReport r = exact_report;
    edit(r);
    return r;
  };
  double ratio = 0.0;

  const engine::QueryReport dropped =
      perturbed([](engine::QueryReport& r) { r.results.pop_back(); });
  expect("shape/count", CheckShape(answer("exacts", exact_report), index),
         CheckShape(answer("exacts", dropped), index));
  const engine::QueryReport swapped = perturbed(
      [](engine::QueryReport& r) { std::swap(r.results[0], r.results[1]); });
  expect("shape/order", "", CheckShape(answer("exacts", swapped), index));
  const engine::QueryReport duplicated = perturbed([](engine::QueryReport& r) {
    r.results[1].trajectory_id = r.results[0].trajectory_id;
    r.results[1].distance = r.results[0].distance;
    r.results[1].range = r.results[0].range;
  });
  expect("shape/unique", "", CheckShape(answer("exacts", duplicated), index));
  const engine::QueryReport shifted = perturbed(
      [](engine::QueryReport& r) { r.results[2].distance *= 1.0 + 1e-6; });
  expect("distances", CheckDistances(answer("exacts", exact_report), index),
         CheckDistances(answer("exacts", shifted), index));
  // An "exact" answer claiming twice the true distances makes the real
  // answer look better than exact: a ratio of 0.5.
  const engine::QueryReport inflated_exact = perturbed([](engine::QueryReport& r) {
    for (auto& e : r.results) e.distance *= 2.0;
  });
  expect("approx_ratio",
         CheckApproxRatio(answer("pss", approx_report),
                          answer("exacts", exact_report), index, &ratio),
         CheckApproxRatio(answer("exacts", exact_report),
                          answer("exacts", inflated_exact), index, &ratio));
  const engine::QueryReport wrong_rank = perturbed([&](engine::QueryReport& r) {
    r.results[0].trajectory_id = corpus.back().id() == r.results[0].trajectory_id
                                     ? corpus.front().id()
                                     : corpus.back().id();
  });
  expect("brute_force",
         CheckExactMatchesBruteForce(answer("exacts", exact_report), index),
         CheckExactMatchesBruteForce(answer("exacts", wrong_rank), index));
  const engine::QueryReport one_ulp = perturbed([](engine::QueryReport& r) {
    r.results[0].distance = std::nextafter(r.results[0].distance, 1e300);
  });
  expect("same_results", CheckSameResults(exact_report, exact_report),
         CheckSameResults(one_ulp, exact_report));
  return failures;
}

}  // namespace perfbench
