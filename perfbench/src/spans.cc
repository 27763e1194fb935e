#include "perfbench/src/spans.h"

#include <chrono>

#include "bench/bench_common.h"

namespace perfbench {

SpanId SpanLog::Begin(const char* name, Clock clock, int64_t start_ns,
                      SpanId parent, uint64_t op) {
  return Add(name, clock, start_ns, start_ns, parent, op);
}

void SpanLog::End(SpanId id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }

SpanId SpanLog::Add(const char* name, Clock clock, int64_t start_ns,
                    int64_t end_ns, SpanId parent, uint64_t op) {
  spans_.push_back(Span{name, clock, start_ns, end_ns, parent, op});
  return spans_.size();
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              uint64_t max_ops) const {
  static constexpr const char* kProcess[] = {"host", "sim: PRISM system",
                                             "sim: baseline system"};
  prism::bench::JsonWriter w;
  w.BeginObject();
  w.BeginArray("traceEvents");
  for (int pid = 0; pid < 3; ++pid) {
    w.BeginObject()
        .Field("name", "process_name")
        .Field("ph", "M")
        .Field("pid", pid + 1)
        .BeginObject("args")
        .Field("name", kProcess[pid])
        .EndObject()
        .EndObject();
  }
  uint64_t written = 0;
  uint64_t omitted = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool is_op = s.clock != Clock::kHost;
    if (is_op && s.op > max_ops) {
      omitted++;
      continue;
    }
    written++;
    const int pid = static_cast<int>(s.clock) + 1;
    const double ts_us = static_cast<double>(s.start_ns) / 1e3;
    const double end_us = static_cast<double>(s.end_ns) / 1e3;
    auto args = [&](prism::bench::JsonWriter& jw) {
      jw.BeginObject("args")
          .Field("span", static_cast<uint64_t>(i + 1))
          .Field("parent", s.parent)
          .Field("op", s.op)
          .Field("start_ns", s.start_ns)
          .Field("end_ns", s.end_ns)
          .EndObject();
    };
    if (!is_op) {
      // Host spans nest properly on one thread: complete events.
      w.BeginObject()
          .Field("name", s.name)
          .Field("cat", "host")
          .Field("ph", "X")
          .Field("pid", pid)
          .Field("tid", 1)
          .Field("ts", ts_us)
          .Field("dur", end_us - ts_us);
      args(w);
      w.EndObject();
      continue;
    }
    // Ops overlap in simulated time: one nestable async track per op id.
    w.BeginObject()
        .Field("name", s.name)
        .Field("cat", "op")
        .Field("ph", "b")
        .Field("id", s.op)
        .Field("pid", pid)
        .Field("tid", 1)
        .Field("ts", ts_us);
    args(w);
    w.EndObject();
    w.BeginObject()
        .Field("name", s.name)
        .Field("cat", "op")
        .Field("ph", "e")
        .Field("id", s.op)
        .Field("pid", pid)
        .Field("tid", 1)
        .Field("ts", end_us)
        .EndObject();
  }
  w.EndArray();
  w.BeginObject("otherData")
      .Field("spans_recorded", static_cast<uint64_t>(spans_.size()))
      .Field("spans_written", written)
      .Field("op_spans_omitted", omitted)
      .Field("max_ops_written_per_system", max_ops)
      .EndObject();
  w.EndObject();
  return w.WriteFile(path);
}

int64_t HostNowNs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kStart)
      .count();
}

}  // namespace perfbench
