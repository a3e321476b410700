// simbench: the end-to-end benchmark of the simsub search engine.
//
//   simbench --workload serve_socket|scan_paper|batch_pool --seed N
//            --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// Runs the self-test of the answer checks first, then the workload. Prints
// progress and verification failures to stderr, and as the last
// line of stdout one JSON object: correct, attempted, failed and metrics
// (the end-to-end metrics untraced, the per-layer metrics traced). Exits
// non-zero when an answer fails verification or the self-test fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "checks.h"
#include "trace.h"
#include "workload.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload serve_socket|scan_paper|"
               "batch_pool --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE]\n",
               message);
  return 2;
}

int SelfTest() {
  const std::vector<std::string> failures = perfbench::SelfTest();
  for (const auto& f : failures) std::fprintf(stderr, "self-test: %s\n", f.c_str());
  std::fprintf(stderr, "self-test: %s\n", failures.empty() ? "every check fired" : "FAILED");
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workdir.empty()) return Usage("--workdir is required");
  if (options.seconds < 1) return Usage("--seconds must be >= 1");
  if (options.trace_out.empty()) options.trace_out = options.workdir + "/spans.jsonl";
  std::filesystem::create_directories(options.workdir);

  // Every run first proves its checks are live: each must reject a
  // perturbed answer, or no result of this run can be trusted.
  if (SelfTest() != 0) return 1;

  perfbench::trace::Enable(options.trace);
  perfbench::RunOutcome outcome;
  if (options.workload == "serve_socket") {
    outcome = perfbench::RunServeSocket(options);
  } else if (options.workload == "scan_paper") {
    outcome = perfbench::RunScanPaper(options);
  } else if (options.workload == "batch_pool") {
    outcome = perfbench::RunBatchPool(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  for (const auto& e : outcome.errors) std::fprintf(stderr, "verify: %s\n", e.c_str());
  const bool correct = outcome.errors.empty();
  std::printf("%s\n", perfbench::ResultJson(correct, outcome.attempted, outcome.failed,
                                             outcome.metrics)
                          .c_str());
  return correct ? 0 : 1;
}
