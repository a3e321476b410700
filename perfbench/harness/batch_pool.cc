// batch_pool: one QueryService::SubmitBatch per round of a long fixed mixed
// list on a pool Width() wide, over a snapshot-opened corpus. The list
// crosses dtw and frechet with ExactS, SizeS, PSS and POS on held-out
// queries of 30-89 points, so request costs are heavy-tailed (ExactS is
// O(n^2 m) per trajectory, PSS O(n m)). It measures util::ThreadPool, the
// SubmitBatch tiling through SimSubEngine::QueryBatch and per-worker
// scratch. The list is long enough that the slowest tile does not set a
// round's length, and queries enter it in a fixed interleaved order so no
// tile holds only the longest queries.
#include "data/snapshot.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

namespace engine = simsub::engine;
namespace sdata = simsub::data;
namespace service = simsub::service;

namespace {

constexpr int kCorpus = 2000;
constexpr int kQueries = 128;
constexpr int kMinLen = 30;
constexpr int kMaxLen = 89;
constexpr int kSetups = 15;
constexpr double kSecondsPerRound = 3.0;
constexpr int kWarmup = 32;

}  // namespace

RunOutcome RunBatchPool(const RunOptions& options) {
  Bench bench(options, kCorpus, kQueries, kMinLen, kMaxLen);
  for (int i = 0; i < kQueries; ++i) {
    const int q = (i * 17) % kQueries;  // 17 is coprime to kQueries
    for (const char* measure : {"dtw", "frechet"}) {
      for (const char* algorithm : {"exacts", "sizes", "pss", "pos"}) {
        bench.requests.push_back({q, measure, algorithm});
      }
    }
  }
  const std::string snap = bench.Path("corpus.snap");
  simsub::util::Status written = bench.WriteCsv();
  if (written.ok()) written = sdata::WriteSnapshot(bench.corpus, snap);
  if (!written.ok()) return {0, 0, {written.ToString()}, {}};
  const int width = Width();

  std::unique_ptr<service::QueryService> svc;
  const double setup_s = TimedSetups(kSetups, [&] {
    auto snapshot = sdata::CorpusSnapshot::Open(snap).value();
    service::ServiceOptions so;
    so.threads = width;
    return std::make_unique<service::QueryService>(*snapshot, so);
  }, &svc);

  std::vector<service::QuerySpec> specs;
  for (const Request& r : bench.requests) specs.push_back(bench.Spec(r));
  for (auto& f : svc->SubmitBatch(std::span(specs).first(kWarmup))) (void)f.get();

  const int rounds = Rounds(options.seconds, kSecondsPerRound, options.trace);
  TimedPhase timed;
  auto run_rounds = [&](int begin, int end) {
    const auto start = Clock::now();
    for (int round = begin; round < end; ++round) {
      std::vector<std::future<engine::QueryReport>> futures;
      {
        trace::Span span("service", "SubmitBatch");
        futures = svc->SubmitBatch(specs);
      }
      trace::Span span("util", "await");
      for (size_t i = 0; i < futures.size(); ++i) {
        const engine::QueryReport report = futures[i].get();
        timed.Add(i, round == 0, report.queue_seconds + report.seconds, report);
      }
    }
    return SecondsBetween(start, Clock::now());
  };
  double overhead = 1.0;
  RunTimed(options, rounds, run_rounds, &timed, &overhead);

  Verdict verdict = Verify(bench, *svc, timed.first_round);
  // Batched answers equal one-at-a-time ones: each spec through Submit, the
  // one-spec path whose reference semantics is RunOne. Timing this pass
  // gives the SubmitBatch-versus-Submit gap.
  const auto start = Clock::now();
  std::vector<std::future<engine::QueryReport>> singles;
  for (const service::QuerySpec& spec : specs) singles.push_back(svc->Submit(spec));
  std::vector<engine::QueryReport> one_at_a_time;
  for (auto& f : singles) one_at_a_time.push_back(f.get());
  const double submit_s = SecondsBetween(start, Clock::now());
  for (size_t i = 0; i < timed.first_round.size(); ++i) {
    if (std::string diff = CheckSameResults(timed.first_round[i], one_at_a_time[i]);
        !diff.empty()) {
      verdict.errors.push_back("request " + std::to_string(i) +
                               ": batched answer differs from one-at-a-time: " + diff);
    }
  }
  Metrics layer;
  layer["service.submitbatch_speedup"] = {submit_s / (timed.wall_s / rounds), "ratio"};
  return Finish(bench, *svc, setup_s, timed, verdict, width, overhead, layer);
}

}  // namespace perfbench
