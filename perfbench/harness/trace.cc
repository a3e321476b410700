#include "trace.h"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {

namespace {

struct Record {
  const char* layer;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same buffer, -1 for a root span
  uint64_t request;
};

struct Buffer {
  int thread = 0;
  std::vector<Record> records;
  std::vector<int32_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

Buffer& ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<int>(g_buffers.size()) - 1;
  }
  return *buffer;
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* layer, const char* name, uint64_t request) {
  if (!Enabled()) return;
  Buffer& b = ThreadBuffer();
  const int32_t parent = b.open.empty() ? -1 : b.open.back();
  index_ = static_cast<int32_t>(b.records.size());
  b.records.push_back({layer, name, Nanos(Clock::now()), 0, parent, request});
  b.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  Buffer& b = ThreadBuffer();
  b.records[static_cast<size_t>(index_)].end_ns = Nanos(Clock::now());
  b.open.pop_back();
}

int32_t RecordChild(const char* layer, const char* name, double seconds,
                    Clock::time_point end, int32_t parent, uint64_t request) {
  if (!Enabled()) return -1;
  Buffer& b = ThreadBuffer();
  if (parent == kInnermost) parent = b.open.empty() ? -1 : b.open.back();
  const int64_t end_ns = Nanos(end);
  b.records.push_back({layer, name, end_ns - static_cast<int64_t>(seconds * 1e9),
                       end_ns, parent, request});
  return static_cast<int32_t>(b.records.size()) - 1;
}

std::map<std::string, double> SelfMillisByLayer() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, double> self;
  for (const auto& b : g_buffers) {
    std::vector<int64_t> child_ns(b->records.size(), 0);
    for (const Record& r : b->records) {
      if (r.parent >= 0) child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
    for (size_t i = 0; i < b->records.size(); ++i) {
      const Record& r = b->records[i];
      self[r.layer] += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-6;
    }
  }
  return self;
}

bool WriteJsonLines(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::ofstream out(path);
  for (const auto& b : g_buffers) {
    for (size_t i = 0; i < b->records.size(); ++i) {
      const Record& r = b->records[i];
      out << "{\"thread\": " << b->thread << ", \"id\": " << i
          << ", \"parent\": " << r.parent << ", \"layer\": \"" << r.layer
          << "\", \"name\": \"" << r.name << "\", \"request\": " << r.request
          << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench::trace
