// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around the calls it makes into each library layer
// (never from inside the library), kept in per-thread buffers, and written
// out once at the end of the run. Disabled, a Span costs one relaxed load.
#ifndef SIMSUB_PERFBENCH_TRACE_H_
#define SIMSUB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

#include "support.h"

namespace perfbench::trace {

/// Turns recording on or off for every thread.
void Enable(bool on);
bool Enabled();

/// RAII span: records [construction, destruction) under `layer` (one of
/// the src/ module names) with the enclosing open span on the same thread
/// as its parent. `layer` and `name` must be string literals.
class Span {
 public:
  Span(const char* layer, const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;
};

/// Parent value meaning "the innermost open span on this thread".
inline constexpr int32_t kInnermost = -2;

/// Records a completed span of `seconds` ending at `end`, for time the
/// library reports itself (a report's queue and scan seconds inside a
/// client round trip). Returns its index, usable as the `parent` of a
/// further nested record; -1 when tracing is off.
int32_t RecordChild(const char* layer, const char* name, double seconds,
                    Clock::time_point end, int32_t parent = kInnermost,
                    uint64_t request = 0);

/// Self time per layer in milliseconds: each span's duration minus the
/// part covered by its child spans, summed by layer.
std::map<std::string, double> SelfMillisByLayer();

/// Writes every recorded span as one JSON object per line.
bool WriteJsonLines(const std::string& path);

}  // namespace perfbench::trace

#endif  // SIMSUB_PERFBENCH_TRACE_H_
