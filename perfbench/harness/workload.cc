#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <utility>

#include <sched.h>

#include "algo/registry.h"
#include "data/snapshot.h"
#include "inputs.h"
#include "net/wire.h"
#include "similarity/registry.h"
#include "util/logging.h"

namespace perfbench {

namespace engine = simsub::engine;
namespace geo = simsub::geo;
namespace sdata = simsub::data;
namespace service = simsub::service;

namespace {

const char* const kMeasures[] = {"dtw", "frechet", "edr"};

bool IsApproximate(const std::string& algorithm) { return algorithm != "exacts"; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Set(Metrics* m, const std::string& name, double value, const char* unit) {
  (*m)[name] = Metric{value, unit};
}

/// Runs `fn` inside a trace span and returns its wall seconds.
template <typename Fn>
double TimeSpan(const char* layer, const char* name, Fn&& fn) {
  trace::Span span(layer, name);
  const auto start = Clock::now();
  fn();
  return SecondsBetween(start, Clock::now());
}

/// Seconds a report's own scan took. Reports of one SubmitBatch tile each
/// carry the whole tile's queue and scan seconds, so a group of reports
/// sharing both values is one execution, split evenly among its members.
std::vector<double> PerRequestExec(const std::vector<engine::QueryReport>& reports) {
  std::map<std::pair<double, double>, int> group;
  for (const auto& r : reports) ++group[{r.queue_seconds, r.seconds}];
  std::vector<double> out;
  out.reserve(reports.size());
  for (const auto& r : reports) {
    out.push_back(r.seconds / group[{r.queue_seconds, r.seconds}]);
  }
  return out;
}

}  // namespace

Bench::Bench(RunOptions run_options, int corpus_size, int query_count,
             int min_len, int max_len)
    : options(std::move(run_options)),
      corpus(MakeCorpus(corpus_size, DeriveSeed(options.seed, 1))),
      queries(MakeHeldOutQueries(query_count, min_len, max_len,
                                 DeriveSeed(options.seed, 2))) {}

std::string Bench::Path(const std::string& file) const {
  return options.workdir + "/" + file;
}

simsub::util::Status Bench::WriteCsv() {
  const std::string csv = Path("corpus.csv");
  if (auto st = sdata::SaveCsv(corpus, csv); !st.ok()) return st;
  auto loaded = sdata::LoadCsv(csv, corpus.name, corpus.kind);
  if (!loaded.ok()) return loaded.status();
  corpus = std::move(loaded).value();
  return simsub::util::Status();
}

service::QuerySpec Bench::Spec(const Request& request) const {
  service::QuerySpec spec;
  spec.points = queries[static_cast<size_t>(request.query)].View();
  spec.measure = request.measure;
  spec.algorithm = request.algorithm;
  spec.k = kTopK;
  if (request.algorithm == "rls" || request.algorithm == "rls-skip") {
    spec.algorithm_options.rls_policy_path =
        policy_paths.at(request.algorithm + "/" + request.measure);
  }
  return spec;
}

int Width() {
  // The CPUs this process may run on (what nproc prints), not the host's.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus =
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0 ? CPU_COUNT(&allowed) : 1;
  return std::clamp(cpus, 1, 4);
}

int Rounds(int seconds, double seconds_per_round, bool traced) {
  int rounds = std::max(1, static_cast<int>(std::lround(seconds / seconds_per_round)));
  if (traced) rounds = std::max(2, rounds + rounds % 2);
  return rounds;
}

void TimedPhase::Add(size_t index, bool first, double latency,
                     const engine::QueryReport& report) {
  ++attempted;
  if (!report.status.ok()) {
    ++failed;
    return;
  }
  latency_s.push_back(latency);
  queue_s.push_back(report.queue_seconds);
  exec_s.push_back(report.seconds);
  if (first) {
    if (first_round.size() <= index) first_round.resize(index + 1);
    first_round[index] = report;
  } else if (std::string diff = index < first_round.size()
                                    ? CheckSameResults(report, first_round[index])
                                    : "no round-one answer";
             !diff.empty()) {
    errors.push_back("request " + std::to_string(index) +
                     " answered differently in a later round: " + diff);
  }
}

Verdict Verify(const Bench& bench, service::QueryService& svc,
               const std::vector<engine::QueryReport>& first_round) {
  Verdict verdict;
  const CorpusIndex index(bench.corpus.trajectories);
  const auto& requests = bench.requests;
  if (first_round.size() != requests.size()) {
    verdict.errors.push_back("round one did not answer every request");
    return verdict;
  }
  auto answer = [&](const Request& r, const engine::QueryReport& report) {
    return Answer{r.measure, r.algorithm, kTopK,
                  bench.queries[static_cast<size_t>(r.query)].View(), &report};
  };
  auto fail = [&](std::string error) {
    const bool failed = !error.empty();
    if (failed) verdict.errors.push_back(std::move(error));
    return failed;
  };

  // ExactS reference per (query, measure): from the list, or run here.
  std::map<std::pair<int, std::string>, engine::QueryReport> exact;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!IsApproximate(requests[i].algorithm)) {
      exact[{requests[i].query, requests[i].measure}] = first_round[i];
    }
  }
  std::vector<Request> refs;
  std::vector<std::future<engine::QueryReport>> pending;
  for (const Request& r : requests) {
    if (exact.count({r.query, r.measure}) == 0) {
      refs.push_back({r.query, r.measure, "exacts"});
      exact[{r.query, r.measure}] = engine::QueryReport();
      pending.push_back(svc.Submit(bench.Spec(refs.back())));
    }
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    engine::QueryReport& report = exact[{refs[i].query, refs[i].measure}];
    report = pending[i].get();
    const Answer a = answer(refs[i], report);
    if (!fail(CheckShape(a, index))) fail(CheckDistances(a, index));
  }

  std::map<std::string, std::vector<double>> ratios;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const Answer a = answer(r, first_round[i]);
    if (fail(CheckShape(a, index)) || fail(CheckDistances(a, index))) continue;
    if (!IsApproximate(r.algorithm)) continue;
    double ratio = 0.0;
    const Answer e = answer({r.query, r.measure, "exacts"}, exact[{r.query, r.measure}]);
    if (!fail(CheckApproxRatio(a, e, index, &ratio))) ratios[r.algorithm].push_back(ratio);
  }
  double sum = 0.0;
  size_t count = 0;
  for (const auto& [algorithm, values] : ratios) {
    double s = 0.0;
    for (double v : values) s += v;
    verdict.approx_ratio_by_algorithm[algorithm] = s / static_cast<double>(values.size());
    sum += s;
    count += values.size();
  }
  verdict.approx_ratio = count > 0 ? sum / static_cast<double>(count) : 0.0;

  // ExactS against brute force, unfiltered, on the shortest query.
  int shortest = requests.front().query;
  std::set<std::string> measures;
  for (const Request& r : requests) {
    measures.insert(r.measure);
    if (bench.queries[static_cast<size_t>(r.query)].size() <
        bench.queries[static_cast<size_t>(shortest)].size()) {
      shortest = r.query;
    }
  }
  for (const std::string& measure : measures) {
    const Request ref{shortest, measure, "exacts"};
    service::QuerySpec spec = bench.Spec(ref);
    spec.filter = engine::PruningFilter::kNone;
    const engine::QueryReport report = svc.RunOne(spec);
    const Answer a = answer(ref, report);
    if (!fail(CheckShape(a, index))) fail(CheckExactMatchesBruteForce(a, index));
  }
  return verdict;
}

namespace {

Metrics EndToEnd(double setup_s, const TimedPhase& timed, const Verdict& verdict) {
  Metrics m;
  const auto done = static_cast<double>(timed.latency_s.size());
  Set(&m, "setup_s", setup_s, "s");
  Set(&m, "qps", Ratio(done, timed.wall_s), "req/s");
  Set(&m, "p50_ms", Percentile(timed.latency_s, 0.50) * 1e3, "ms");
  Set(&m, "p99_ms", Percentile(timed.latency_s, 0.99) * 1e3, "ms");
  Set(&m, "cpu_ms_per_req", Ratio(timed.cpu_s * 1e3, done), "ms");
  Set(&m, "rss_mb", PeakRssMb(), "MiB");
  Set(&m, "approx_ratio", verdict.approx_ratio, "ratio");
  return m;
}

// Wire codec on the workload's own specs and round-one reports.
void ProbeCodec(const Bench& bench, const TimedPhase& timed, Metrics* m) {
  double encode_s = 0.0, decode_s = 0.0, query_bytes = 0.0, report_bytes = 0.0;
  const size_t n = bench.requests.size();
  for (size_t i = 0; i < n; ++i) {
    const service::QuerySpec spec = bench.Spec(bench.requests[i]);
    std::vector<uint8_t> query;
    std::vector<uint8_t> report;
    encode_s += TimeSpan("net", "EncodeQuery",
                         [&] { query = simsub::net::EncodeQuery(spec, "", i).value(); });
    decode_s += TimeSpan("net", "DecodeQuery",
                         [&] { (void)simsub::net::DecodeQuery(query); });
    encode_s += TimeSpan("net", "EncodeReport", [&] {
      report = simsub::net::EncodeReport(timed.first_round[i], i);
    });
    decode_s += TimeSpan("net", "DecodeReport",
                         [&] { (void)simsub::net::DecodeReport(report); });
    query_bytes += static_cast<double>(query.size());
    report_bytes += static_cast<double>(report.size());
  }
  const auto dn = static_cast<double>(n);
  Set(m, "net.encode_us", encode_s * 1e6 / dn, "us");
  Set(m, "net.decode_us", decode_s * 1e6 / dn, "us");
  Set(m, "net.query_bytes", query_bytes / dn, "B");
  Set(m, "net.report_bytes", report_bytes / dn, "B");
}

// Planner and planned engine scans on the workload's own requests, plus
// one direct Search per sampled (corpus, query) pair per algorithm.
void ProbeEngineAndAlgo(const Bench& bench, service::QueryService& svc, Metrics* m) {
  constexpr int kPlanRepeats = 50;
  constexpr size_t kScanSamples = 24;
  constexpr int kPairs = 16;
  double plan_s = 0.0;
  for (const geo::Trajectory& q : bench.queries) {
    plan_s += TimeSpan("service", "Plan", [&] {
      for (int i = 0; i < kPlanRepeats; ++i) (void)svc.planner().Plan(q.View());
    });
  }
  Set(m, "service.planner_us",
      plan_s * 1e6 / (kPlanRepeats * static_cast<double>(bench.queries.size())), "us");

  std::map<std::string, std::unique_ptr<simsub::similarity::SimilarityMeasure>> measures;
  std::map<std::string, std::unique_ptr<simsub::algo::SubtrajectorySearch>> searches;
  auto search_for = [&](const Request& r) -> const simsub::algo::SubtrajectorySearch& {
    const std::string key = r.algorithm + "/" + r.measure;
    if (searches.count(key) == 0) {
      if (measures.count(r.measure) == 0) {
        measures[r.measure] = simsub::similarity::MakeMeasure(r.measure).value();
      }
      searches[key] = simsub::algo::MakeSearch(r.algorithm, measures[r.measure].get(),
                                               bench.Spec(r).algorithm_options)
                          .value();
    }
    return *searches[key];
  };

  simsub::similarity::EvaluatorCache scratch;
  const size_t stride = std::max<size_t>(1, bench.requests.size() / kScanSamples);
  double scan_s = 0.0;
  int scans = 0;
  for (size_t i = 0; i < bench.requests.size(); i += stride) {
    const Request& r = bench.requests[i];
    const auto& search = search_for(r);
    const auto points = bench.queries[static_cast<size_t>(r.query)].View();
    engine::QueryOptions eo;
    eo.k = kTopK;
    eo.filter = svc.planner().Plan(points).filter;
    eo.scratch = &scratch;
    scan_s += TimeSpan("engine", "Query", [&] { (void)svc.engine().Query(points, search, eo); });
    ++scans;
  }
  Set(m, "engine.scan_ms", scan_s * 1e3 / scans, "ms");

  std::set<std::string> algorithms;
  std::map<std::string, std::string> measure_of;
  for (const Request& r : bench.requests) {
    if (algorithms.insert(r.algorithm).second) measure_of[r.algorithm] = r.measure;
  }
  const auto& corpus = bench.corpus.trajectories;
  for (const std::string& algorithm : algorithms) {
    const auto& search = search_for({0, measure_of[algorithm], algorithm});
    double extends = 0.0;
    for (int p = 0; p < kPairs; ++p) {
      const auto& data = corpus[(static_cast<size_t>(p) * 7919) % corpus.size()];
      const auto& query = bench.queries[static_cast<size_t>(p) % bench.queries.size()];
      trace::Span span("algo", "Search");
      extends += static_cast<double>(search.Search(data.View(), query.View()).stats.extend_calls);
    }
    Set(m, "algo." + algorithm + ".extend_calls_per_pair", extends / kPairs, "count");
  }
}

// Evaluator Start/Extend over fixed inputs (the same on every seed).
void ProbeKernels(Metrics* m) {
  const sdata::Dataset fixed = MakeCorpus(1, 4242);
  const geo::Trajectory query = MakeHeldOutQueries(1, 60, 60, 2424).front();
  const auto data = fixed.trajectories.front().View();
  constexpr int kReps = 200;
  for (const char* name : kMeasures) {
    auto measure = simsub::similarity::MakeMeasure(name).value();
    auto evaluator = measure->NewEvaluator(query.View());
    double sink = 0.0;
    const double seconds = TimeSpan("similarity", "StartExtend", [&] {
      for (int rep = 0; rep < kReps; ++rep) {
        sink += evaluator->Start(data[0]);
        for (size_t j = 1; j < data.size(); ++j) sink += evaluator->Extend(data[j]);
      }
    });
    const double cells = static_cast<double>(kReps) * static_cast<double>(data.size()) *
                         static_cast<double>(query.size());
    Set(m, std::string("similarity.") + name + ".ns_per_cell",
        sink > 0.0 ? seconds * 1e9 / cells : 0.0, "ns");
  }
}

// Corpus ingest, snapshot round trip, engine construction and index builds
// on the workload's own corpus file.
void ProbeDataAndIndex(const Bench& bench, Metrics* m) {
  const std::string csv = bench.Path("corpus.csv");
  const std::string snap = bench.Path("probe.snap");
  sdata::Dataset loaded;
  Set(m, "data.csv_load_s", TimeSpan("data", "LoadCsv", [&] {
        loaded = sdata::LoadCsv(csv, "probe", sdata::DatasetKind::kPorto).value();
      }), "s");
  Set(m, "data.snapshot_write_s", TimeSpan("data", "WriteSnapshot", [&] {
        SIMSUB_CHECK(sdata::WriteSnapshot(loaded, snap).ok());
      }), "s");
  std::shared_ptr<const sdata::CorpusSnapshot> snapshot;
  Set(m, "data.snapshot_open_s", TimeSpan("data", "OpenSnapshot", [&] {
        snapshot = sdata::CorpusSnapshot::Open(snap).value();
      }), "s");
  std::optional<engine::SimSubEngine> eng;
  Set(m, "data.engine_build_s", TimeSpan("data", "SimSubEngine", [&] {
        eng.emplace(*snapshot);
      }), "s");
  Set(m, "data.snapshot_mb",
      static_cast<double>(std::filesystem::file_size(snap)) / (1024.0 * 1024.0), "MiB");
  Set(m, "index.rtree_build_s", TimeSpan("index", "BuildIndex", [&] { eng->BuildIndex(); }),
      "s");
  Set(m, "index.grid_build_s",
      TimeSpan("index", "BuildInvertedIndex", [&] { eng->BuildInvertedIndex(); }), "s");
  std::filesystem::remove(snap);
}

// Per-layer metrics from the workload's own reports, service counters and
// direct calls into each layer on the workload's own inputs.
void AddLayerProbes(const Bench& bench, service::QueryService& svc,
                    const TimedPhase& timed, const Verdict& verdict, int workers,
                    Metrics* m) {
  const auto& reports = timed.first_round;
  const auto n = static_cast<double>(reports.size());
  const auto corpus_size = static_cast<double>(bench.corpus.trajectories.size());

  Set(m, "service.queue_ms.p50", Percentile(timed.queue_s, 0.50) * 1e3, "ms");
  Set(m, "service.queue_ms.p99", Percentile(timed.queue_s, 0.99) * 1e3, "ms");
  Set(m, "service.exec_ms.p50", Percentile(timed.exec_s, 0.50) * 1e3, "ms");
  Set(m, "service.exec_ms.p99", Percentile(timed.exec_s, 0.99) * 1e3, "ms");

  double plans[3] = {0, 0, 0};
  double scanned = 0, pruned = 0, lb = 0, abandoned = 0, selectivity_error = 0;
  int planned = 0;
  std::map<std::string, std::pair<double, double>> lb_by_measure;  // skipped, scanned
  std::map<std::string, std::vector<double>> exec_by_algorithm;
  const std::vector<double> exec = PerRequestExec(reports);
  for (size_t i = 0; i < reports.size(); ++i) {
    const engine::QueryReport& r = reports[i];
    plans[static_cast<int>(r.filter_used)] += 1;
    scanned += static_cast<double>(r.trajectories_scanned);
    pruned += static_cast<double>(r.trajectories_pruned);
    lb += static_cast<double>(r.lb_skipped);
    abandoned += static_cast<double>(r.dp_abandoned);
    auto& by_measure = lb_by_measure[bench.requests[i].measure];
    by_measure.first += static_cast<double>(r.lb_skipped);
    by_measure.second += static_cast<double>(r.trajectories_scanned);
    if (r.planned_selectivity >= 0.0) {
      const double survivors =
          (corpus_size - static_cast<double>(r.trajectories_pruned)) / corpus_size;
      selectivity_error += std::abs(r.planned_selectivity - survivors);
      ++planned;
    }
    exec_by_algorithm[bench.requests[i].algorithm].push_back(exec[i]);
  }
  Set(m, "service.plans.none", plans[0], "count");
  Set(m, "service.plans.rtree", plans[1], "count");
  Set(m, "service.plans.grid", plans[2], "count");
  Set(m, "engine.scanned_per_query", scanned / n, "count");
  Set(m, "engine.filter_pruned_per_query", pruned / n, "count");
  Set(m, "engine.lb_skipped_per_query", lb / n, "count");
  Set(m, "engine.dp_abandoned_per_query", abandoned / n, "count");
  Set(m, "engine.lb_skip_ratio", Ratio(lb, scanned), "ratio");
  for (const auto& [measure, counts] : lb_by_measure) {
    if (measure == "dtw" || measure == "frechet") {
      Set(m, "engine.lb_skip_ratio." + measure, Ratio(counts.first, counts.second), "ratio");
    }
  }
  Set(m, "index.selectivity_error", planned > 0 ? selectivity_error / planned : 0.0,
      "ratio");
  for (const auto& [algorithm, values] : exec_by_algorithm) {
    double sum = 0.0;
    for (double v : values) sum += v;
    Set(m, "algo." + algorithm + ".ms_per_query",
        sum * 1e3 / static_cast<double>(values.size()), "ms");
  }
  for (const auto& [algorithm, ratio] : verdict.approx_ratio_by_algorithm) {
    Set(m, "algo." + algorithm + ".approx_ratio", ratio, "ratio");
  }

  const service::ServiceStats stats = svc.stats();
  Set(m, "service.spec_cache_hit_ratio",
      Ratio(static_cast<double>(stats.spec_cache_hits),
            static_cast<double>(stats.spec_cache_hits + stats.spec_cache_misses)),
      "ratio");
  Set(m, "service.evaluator_reuse_ratio",
      Ratio(static_cast<double>(stats.evaluator_reuses),
            static_cast<double>(stats.evaluator_reuses + stats.evaluator_allocs)),
      "ratio");
  // Busy time counts each execution once (see PerRequestExec), over every
  // round of the timed phase.
  std::set<std::pair<double, double>> executions;
  double busy_s = 0.0;
  for (size_t i = 0; i < timed.exec_s.size(); ++i) {
    if (executions.insert({timed.queue_s[i], timed.exec_s[i]}).second) {
      busy_s += timed.exec_s[i];
    }
  }
  const double capacity_s = workers * timed.wall_s;
  Set(m, "service.worker_busy_ratio", Ratio(busy_s, capacity_s), "ratio");
  Set(m, "util.pool_idle_ratio", std::max(0.0, 1.0 - Ratio(timed.cpu_s, capacity_s)),
      "ratio");

  ProbeCodec(bench, timed, m);
  ProbeEngineAndAlgo(bench, svc, m);
  ProbeKernels(m);
  ProbeDataAndIndex(bench, m);
}

}  // namespace

RunOutcome Finish(const Bench& bench, service::QueryService& svc, double setup_s,
                  const TimedPhase& timed, const Verdict& verdict, int workers,
                  double overhead, const Metrics& layer) {
  RunOutcome out;
  out.attempted = timed.attempted;
  out.failed = timed.failed;
  out.errors = timed.errors;
  out.errors.insert(out.errors.end(), verdict.errors.begin(), verdict.errors.end());
  if (!bench.options.trace) {
    out.metrics = EndToEnd(setup_s, timed, verdict);
    return out;
  }
  trace::Enable(true);
  AddLayerProbes(bench, svc, timed, verdict, workers, &out.metrics);
  trace::Enable(false);
  for (const auto& [name, metric] : layer) out.metrics[name] = metric;
  for (const auto& [name, ms] : trace::SelfMillisByLayer()) {
    Set(&out.metrics, "trace.self_ms." + name, ms, "ms");
  }
  Set(&out.metrics, "trace.overhead_pct", (overhead - 1.0) * 100.0, "%");
  if (!trace::WriteJsonLines(bench.options.trace_out)) {
    out.errors.push_back("cannot write spans to " + bench.options.trace_out);
  }
  return out;
}

}  // namespace perfbench
