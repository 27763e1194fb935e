// In-memory span log for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into the layers: host-time spans for set-up, the timed run and the check,
// and simulated-time spans for every operation (arrival to completion, with
// a child covering the op function). Each span has a name, a clock, start
// and end in nanoseconds, a parent and an op id. The log is written once,
// at exit, as Chrome trace-event JSON (loadable in Perfetto).
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Which time base a span's start/end are in. Simulated clocks are per
// system because each system runs in its own simulation.
enum class Clock : uint8_t { kHost = 0, kSimPrism = 1, kSimBase = 2 };

using SpanId = uint64_t;  // 0 = none

struct Span {
  const char* name;  // string literal
  Clock clock;
  int64_t start_ns;
  int64_t end_ns;
  SpanId parent;
  uint64_t op;  // 0 for host spans
};

class SpanLog {
 public:
  // Opens a span; End() closes it.
  SpanId Begin(const char* name, Clock clock, int64_t start_ns,
               SpanId parent, uint64_t op = 0);
  void End(SpanId id, int64_t end_ns);
  // Records a closed span.
  SpanId Add(const char* name, Clock clock, int64_t start_ns, int64_t end_ns,
             SpanId parent, uint64_t op);

  size_t size() const { return spans_.size(); }
  void Clear() { spans_.clear(); }

  // Writes every host span and the spans of the first `max_ops` ops of
  // each simulated clock; the metadata records how many were left out.
  bool WriteChromeJson(const std::string& path, uint64_t max_ops) const;

 private:
  std::vector<Span> spans_;  // id = index + 1
};

// Nanoseconds of host time since the first call (steady clock).
int64_t HostNowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
