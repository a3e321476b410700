// scan_paper: the paper's comparison, single-threaded and in-process.
// QueryService::RunOne serves every held-out query once per algorithm
// (ExactS, SizeS, PSS, POS, RLS, RLS-Skip) and per measure (dtw, frechet)
// at top-k over a corpus loaded from CSV. It measures the algo and
// similarity kernels and the engine cascade with no sockets and no pool,
// and is the only workload whose answers include ExactS for every query, so
// its approx_ratio is the paper's. It is the control for the parallel
// paths: their changes should leave it unmoved.
//
// The RLS policies are trained during set-up and named by rls_policy_path:
// specs that carry an in-memory policy pointer are never cached by the
// service, so each such request would copy the policy again.
#include "inputs.h"
#include "rl/policy_io.h"
#include "rl/trainer.h"
#include "similarity/registry.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

namespace engine = simsub::engine;
namespace rl = simsub::rl;
namespace sdata = simsub::data;
namespace service = simsub::service;

namespace {

constexpr int kCorpus = 1000;
constexpr int kQueries = 288;
constexpr int kMinLen = 30;  // the paper's G1-G4 query lengths
constexpr int kMaxLen = 89;
constexpr int kSetups = 9;
constexpr double kSecondsPerRound = 16;
constexpr int kEpisodes = 200;
constexpr int kSkipCount = 3;

struct Stack {
  std::unique_ptr<service::QueryService> service;
  double train_s_rls = 0.0;
  double train_s_skip = 0.0;
};

}  // namespace

RunOutcome RunScanPaper(const RunOptions& options) {
  Bench bench(options, kCorpus, kQueries, kMinLen, kMaxLen);
  for (int q = 0; q < kQueries; ++q) {
    for (const char* measure : {"dtw", "frechet"}) {
      for (const char* algorithm : {"exacts", "sizes", "pss", "pos", "rls", "rls-skip"}) {
        bench.requests.push_back({q, measure, algorithm});
      }
      for (const char* algorithm : {"rls", "rls-skip"}) {
        bench.policy_paths[std::string(algorithm) + "/" + measure] =
            bench.Path(std::string(algorithm) + "-" + measure + ".policy");
      }
    }
  }
  const std::string csv = bench.Path("corpus.csv");
  if (auto st = bench.WriteCsv(); !st.ok()) {
    return {0, 0, {st.ToString()}, {}};
  }

  std::unique_ptr<Stack> stack;
  const double setup_s = TimedSetups(kSetups, [&] {
    auto s = std::make_unique<Stack>();
    sdata::Dataset dataset = sdata::LoadCsv(csv, "corpus", sdata::DatasetKind::kPorto).value();
    for (const char* measure_name : {"dtw", "frechet"}) {
      auto measure = simsub::similarity::MakeMeasure(measure_name).value();
      for (const char* algorithm : {"rls", "rls-skip"}) {
        rl::RlsTrainOptions to;
        to.episodes = kEpisodes;
        to.seed = DeriveSeed(options.seed, 3);
        to.env.skip_count = std::string(algorithm) == "rls-skip" ? kSkipCount : 0;
        // Skip actions compress time, so the skip policy gets a discount
        // closer to 1 (as the paper benches train it).
        to.dqn.gamma = to.env.skip_count > 0 ? 0.99 : 0.95;
        rl::RlsTrainer trainer(measure.get(), to);
        trace::Span span("rl", "Train");
        const rl::TrainedPolicy policy =
            trainer.Train(dataset.trajectories, dataset.trajectories);
        (to.env.skip_count > 0 ? s->train_s_skip : s->train_s_rls) +=
            trainer.report().train_seconds;
        SIMSUB_CHECK(rl::SavePolicyToFile(
                         policy, bench.policy_paths.at(std::string(algorithm) + "/" +
                                                       measure_name))
                         .ok());
      }
    }
    service::ServiceOptions so;
    so.threads = 1;
    s->service = std::make_unique<service::QueryService>(
        engine::SimSubEngine(std::move(dataset.trajectories)), so);
    return s;
  }, &stack);
  service::QueryService& svc = *stack->service;

  // Warm-up, untimed: the first query's requests resolve and cache every
  // (measure, algorithm) pair, policies included.
  for (const Request& r : bench.requests) {
    if (r.query == 0) (void)svc.RunOne(bench.Spec(r));
  }

  const int rounds = Rounds(options.seconds, kSecondsPerRound, options.trace);
  TimedPhase timed;
  auto run_rounds = [&](int begin, int end) {
    const auto start = Clock::now();
    for (int round = begin; round < end; ++round) {
      for (size_t i = 0; i < bench.requests.size(); ++i) {
        const service::QuerySpec spec = bench.Spec(bench.requests[i]);
        trace::Span span("service", "RunOne", i);
        const auto called = Clock::now();
        const engine::QueryReport report = svc.RunOne(spec);
        const auto returned = Clock::now();
        trace::RecordChild("engine", "scan", report.seconds, returned);
        timed.Add(i, round == 0, SecondsBetween(called, returned), report);
      }
    }
    return SecondsBetween(start, Clock::now());
  };
  double overhead = 1.0;
  RunTimed(options, rounds, run_rounds, &timed, &overhead);

  const Verdict verdict = Verify(bench, svc, timed.first_round);
  Metrics layer;
  if (options.trace) {
    layer["rl.train_s.rls"] = {stack->train_s_rls, "s"};
    layer["rl.train_s.rls-skip"] = {stack->train_s_skip, "s"};
  }
  return Finish(bench, svc, setup_s, timed, verdict, 1, overhead, layer);
}

}  // namespace perfbench
