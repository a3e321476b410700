// What the three workloads share: run options, the request list, the timed
// phase's record, answer verification against the reference scorers, the
// end-to-end metrics, and the per-layer probes of the traced run.
#ifndef SIMSUB_PERFBENCH_WORKLOAD_H_
#define SIMSUB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "geo/trajectory.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "support.h"
#include "trace.h"

namespace perfbench {

/// Results per request.
inline constexpr int kTopK = 10;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for the corpus files and policies of this run.
  std::string workdir;
  /// Where a traced run writes its spans (JSON lines).
  std::string trace_out;
};

/// One request of a workload's fixed list.
struct Request {
  int query = 0;
  std::string measure;
  std::string algorithm;
};

/// Inputs of one run, all derived from the seed.
struct Bench {
  RunOptions options;
  simsub::data::Dataset corpus;
  std::vector<simsub::geo::Trajectory> queries;
  std::vector<Request> requests;
  /// rls_policy_path per "<algorithm>/<measure>" (scan_paper only).
  std::map<std::string, std::string> policy_paths;

  Bench(RunOptions run_options, int corpus_size, int query_count, int min_len,
        int max_len);
  std::string Path(const std::string& file) const;
  /// Writes the corpus to Path("corpus.csv") and replaces it with what
  /// LoadCsv reads back: the CSV keeps 6 decimals, and the checks must see
  /// the coordinates the program serves.
  simsub::util::Status WriteCsv();
  simsub::service::QuerySpec Spec(const Request& request) const;
};

/// Worker and connection width: the CPUs this process may run on (as
/// nproc counts them), at most 4.
int Width();

/// Runs `setup` (returning a std::unique_ptr) `repeats` times, keeps the
/// last result, and returns the median wall time in seconds. Each result is
/// destroyed before the next set-up starts, so set-ups share no state.
template <typename Setup>
double TimedSetups(int repeats, Setup&& setup, decltype(setup())* kept) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    kept->reset();
    const auto start = Clock::now();
    *kept = setup();
    seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  return Median(seconds);
}

/// Rounds of the request list a run makes: a fixed count for a given
/// --seconds (never a wall-clock budget), so every run does the same work.
/// `seconds_per_round` is the round's measured cost on the reference
/// machine (see README.md). A traced run needs an even count >= 2: its first
/// half runs untraced and its second half traced.
int Rounds(int seconds, double seconds_per_round, bool traced);

/// What the timed phase recorded.
struct TimedPhase {
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Client-observed latency of each completed request.
  std::vector<double> latency_s;
  /// The service's own queue and execution seconds of each report.
  std::vector<double> queue_s;
  std::vector<double> exec_s;
  /// Round-one reports, in request-list order (the ones verified).
  std::vector<simsub::engine::QueryReport> first_round;
  /// Reports of later rounds that differ from round one.
  std::vector<std::string> errors;

  /// Folds one report in; `index` is its position in the request list.
  void Add(size_t index, bool first, double latency,
           const simsub::engine::QueryReport& report);
};

/// Verification outcome of a run.
struct Verdict {
  std::vector<std::string> errors;
  /// Mean approximation ratio over every approximate answer, and per
  /// approximate algorithm.
  double approx_ratio = 0.0;
  std::map<std::string, double> approx_ratio_by_algorithm;
};

/// Checks the round-one answers: shape and re-scored distances of every
/// answer, the approximation ratio of every approximate answer against
/// ExactS (from the list when it holds the exacts request, otherwise run
/// in-process), and ExactS against brute force on the shortest query with
/// the filter forced to none.
Verdict Verify(const Bench& bench, simsub::service::QueryService& service,
               const std::vector<simsub::engine::QueryReport>& first_round);

/// Runs the timed rounds [0, rounds) through `run_rounds(begin, end)`,
/// which returns the wall seconds it took, and records wall and process CPU
/// time into `timed`. A traced run traces only the second half of the
/// rounds; `overhead` then receives the traced half's wall time over the
/// untraced half's.
template <typename RunRounds>
void RunTimed(const RunOptions& options, int rounds, RunRounds&& run_rounds,
              TimedPhase* timed, double* overhead) {
  const double cpu = ProcessCpuSeconds();
  trace::Enable(false);
  if (!options.trace) {
    timed->wall_s = run_rounds(0, rounds);
  } else {
    const double untraced = run_rounds(0, rounds / 2);
    trace::Enable(true);
    const double traced = run_rounds(rounds / 2, rounds);
    trace::Enable(false);
    timed->wall_s = untraced + traced;
    *overhead = traced / untraced;
  }
  timed->cpu_s = ProcessCpuSeconds() - cpu;
}

/// The outcome of a run: what main prints.
struct RunOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  Metrics metrics;
};

/// Assembles a workload's outcome: verification errors from the timed phase
/// and the verdict, then the end-to-end metrics, or with tracing the
/// per-layer metrics of the layers the workload calls (`layer` holds the
/// ones only the workload can measure), with the spans written to
/// options.trace_out. run.py reports the rest of BENCHMARK.json's per-layer
/// list as 0.
RunOutcome Finish(const Bench& bench, simsub::service::QueryService& service,
                  double setup_s, const TimedPhase& timed, const Verdict& verdict,
                  int workers, double overhead, const Metrics& layer);

/// The workloads.
RunOutcome RunServeSocket(const RunOptions& options);
RunOutcome RunScanPaper(const RunOptions& options);
RunOutcome RunBatchPool(const RunOptions& options);

}  // namespace perfbench

#endif  // SIMSUB_PERFBENCH_WORKLOAD_H_
