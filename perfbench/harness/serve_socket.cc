// serve_socket: a closed loop over the loopback socket against net::Server.
// The server runs over a corpus ingested from CSV into a snapshot; Width()
// connections each send their slice of a fixed list of requests
// (dtw and frechet x pos, pss and sizes on short held-out queries, planner
// on). Each request scans about 160 grid candidates, so the wire codec,
// admission, queue hand-off and planning are about a twentieth of the
// round trip; README.md says why the requests are not lighter. The loop is
// closed because the protocol answers one request at a time per
// connection: with this few connections an open-loop schedule measures
// mostly the generator's own per-connection backlog.
#include <latch>
#include <mutex>
#include <thread>

#include "data/snapshot.h"
#include "net/client.h"
#include "net/server.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

namespace engine = simsub::engine;
namespace net = simsub::net;
namespace sdata = simsub::data;
namespace service = simsub::service;

namespace {

constexpr int kCorpus = 3000;
constexpr int kQueries = 96;
constexpr int kMinLen = 30;  // the paper's G1 query lengths
constexpr int kMaxLen = 44;
constexpr int kSetups = 15;
constexpr double kSecondsPerRound = 0.83;
constexpr int kWarmupPerConnection = 24;

struct Stack {
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;  // destroyed first
};

}  // namespace

RunOutcome RunServeSocket(const RunOptions& options) {
  Bench bench(options, kCorpus, kQueries, kMinLen, kMaxLen);
  for (int q = 0; q < kQueries; ++q) {
    for (const char* measure : {"dtw", "frechet"}) {
      for (const char* algorithm : {"pos", "pss", "sizes"}) {
        bench.requests.push_back({q, measure, algorithm});
      }
    }
  }
  const std::string csv = bench.Path("corpus.csv");
  const std::string snap = bench.Path("corpus.snap");
  if (auto st = bench.WriteCsv(); !st.ok()) {
    return {0, 0, {st.ToString()}, {}};
  }
  const int width = Width();

  std::unique_ptr<Stack> stack;
  const double setup_s = TimedSetups(kSetups, [&] {
    auto s = std::make_unique<Stack>();
    sdata::Dataset dataset = sdata::LoadCsv(csv, "corpus", sdata::DatasetKind::kPorto).value();
    SIMSUB_CHECK(sdata::WriteSnapshot(dataset, snap).ok());
    auto snapshot = sdata::CorpusSnapshot::Open(snap).value();
    service::ServiceOptions so;
    so.threads = width;
    s->service = std::make_unique<service::QueryService>(*snapshot, so);
    net::ServerOptions no;
    no.max_connections = width;
    s->server = std::make_unique<net::Server>(*s->service, no);
    SIMSUB_CHECK(s->server->Start().ok());
    return s;
  }, &stack);

  const std::vector<Request>& requests = bench.requests;
  const int rounds = Rounds(options.seconds, kSecondsPerRound, options.trace);
  TimedPhase timed;
  std::vector<double> overhead_s;  // round trip minus the report's own time
  std::mutex mu;

  // The connections stay open for the whole timed phase: the server holds
  // at most `width` of them, and a connection opened while a closed one's
  // handler is still winding down would be refused. Warm-up is untimed.
  std::vector<net::Client> clients;
  for (int c = 0; c < width; ++c) {
    net::ClientOptions co;
    co.client_id = "bench-" + std::to_string(c);
    auto client = net::Client::Connect("127.0.0.1", stack->server->port(), co);
    SIMSUB_CHECK(client.ok()) << client.status();
    clients.push_back(std::move(client).value());
    for (int i = 0; i < kWarmupPerConnection; ++i) {
      const size_t index = static_cast<size_t>(c + i * width) % requests.size();
      (void)clients.back().Query(bench.Spec(requests[index]));
    }
  }

  // One thread per connection; connection c owns requests c, c + width, ...
  auto run_rounds = [&](int begin, int end) {
    std::latch ready(width);
    std::latch go(1);
    std::vector<std::thread> threads;
    for (int c = 0; c < width; ++c) {
      threads.emplace_back([&, c] {
        net::Client& client = clients[static_cast<size_t>(c)];
        ready.count_down();
        go.wait();
        for (int round = begin; round < end; ++round) {
          for (size_t i = static_cast<size_t>(c); i < requests.size();
               i += static_cast<size_t>(width)) {
            const service::QuerySpec spec = bench.Spec(requests[i]);
            trace::Span span("net", "Client::Query", i);
            const auto sent = Clock::now();
            auto reply = client.Query(spec);
            const auto received = Clock::now();
            engine::QueryReport report;
            if (reply.ok()) {
              report = std::move(reply).value();
            } else {
              report.status = reply.status();
            }
            const int32_t served =
                trace::RecordChild("service", "queue+exec",
                                   report.queue_seconds + report.seconds, received);
            trace::RecordChild("engine", "scan", report.seconds, received, served);
            const double latency = SecondsBetween(sent, received);
            std::lock_guard<std::mutex> lock(mu);
            timed.Add(i, round == 0, latency, report);
            if (report.status.ok()) {
              overhead_s.push_back(latency - report.queue_seconds - report.seconds);
            }
          }
        }
      });
    }
    ready.wait();
    const Clock::time_point start = Clock::now();
    go.count_down();
    for (auto& t : threads) t.join();
    return SecondsBetween(start, Clock::now());
  };
  double overhead = 1.0;
  RunTimed(options, rounds, run_rounds, &timed, &overhead);

  service::QueryService& svc = *stack->service;
  Verdict verdict = Verify(bench, svc, timed.first_round);
  // Remote answers equal in-process ones.
  for (size_t i = 0; i < timed.first_round.size(); ++i) {
    const engine::QueryReport local = svc.RunOne(bench.Spec(requests[i]));
    if (std::string diff = CheckSameResults(timed.first_round[i], local); !diff.empty()) {
      verdict.errors.push_back("request " + std::to_string(i) +
                               ": remote answer differs from in-process: " + diff);
    }
  }

  Metrics layer;
  if (options.trace) {
    const net::ServerStats server = stack->server->stats();
    layer["net.overhead_ms.p50"] = {Percentile(overhead_s, 0.50) * 1e3, "ms"};
    layer["net.overhead_ms.p99"] = {Percentile(overhead_s, 0.99) * 1e3, "ms"};
    layer["net.shed"] = {static_cast<double>(server.shed_inflight + server.shed_quota),
                         "count"};
    int64_t retries = 0;
    for (const net::Client& client : clients) retries += client.stats().retries;
    layer["net.retries"] = {static_cast<double>(retries), "count"};
  }
  return Finish(bench, svc, setup_s, timed, verdict, width, overhead, layer);
}

}  // namespace perfbench
