// The repository benchmark: runs one workload at one seed, checks the
// outputs, and prints every metric by name with its unit. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload kv_read|rs_mixed|tx_zipf --seed N --seconds S
//             --trace 0|1 [--spans PATH] [--offered MOPS]
//
// --trace 0 prints the end-to-end metrics: each workload runs the PRISM
// system and its baseline as two simulations, repeated until S seconds have
// passed (at least three times); host times are medians over the repeats.
// --trace 1 prints the per-layer metrics: untraced and traced repeats
// alternate, then the layer ladder runs, and the spans of the last traced
// repeat are written to PATH as Chrome trace-event JSON.
//
// --offered replaces the workload's offered rate; it exists to sweep rates
// when calibrating the workloads (README.md, "Offered rates").
//
// Every repeat must reproduce the first one's simulated metrics and counts
// exactly (determinism self-check), pass its history checker, and measure
// at least 10 000 ops per system. Any violation prints "correct": false and
// exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/src/ladder.h"
#include "perfbench/src/runner.h"
#include "perfbench/src/spans.h"
#include "src/sim/time.h"

namespace perfbench {
namespace {

constexpr int kMinRepeats = 3;
constexpr int kMinTracedPairs = 2;
constexpr uint64_t kMinSamples = 10'000;
constexpr uint64_t kMaxOpsWritten = 5'000;  // per system, in the span file

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_path;
  double offered_mops = 0;  // 0: the workload's own rate
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k(argv[i]);
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || a->seconds <= 0) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (k == "--spans") {
      a->spans_path = v;
    } else if (k == "--offered") {
      a->offered_mops = std::strtod(v, &end);
      if (*end != '\0' || a->offered_mops <= 0) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

// Both systems of one repeat.
struct Repeat {
  SystemResult prism;
  SystemResult base;
  double setup_s() const { return (prism.setup_ns + base.setup_ns) / 1e9; }
  double run_s() const { return (prism.run_ns + base.run_ns) / 1e9; }
};

// Metric lines, printed human-readable and then as the final JSON object.
class Report {
 public:
  void Add(std::string name, double value, const char* unit) {
    rows_.push_back({std::move(name), value, unit});
  }
  void Fail(std::string why) {
    std::printf("VIOLATION: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const Row& r : rows_) {
      std::printf("%-32s %16.6f %s\n", r.name.c_str(), r.value, r.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < rows_.size(); ++i) {
      char num[64];
      auto [end, ec] = std::to_chars(num, num + sizeof(num), rows_[i].value);
      *end = '\0';
      if (i > 0) json += ", ";
      json += "\"" + rows_[i].name + "\": {\"value\": " + num +
              ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
  bool correct_ = true;
};

Repeat RunRepeat(const WorkloadSpec& spec, uint64_t seed, SpanLog* spans) {
  Repeat r;
  r.prism = RunSystem(spec, Side::kPrism, seed, spans);
  r.base = RunSystem(spec, Side::kBase, seed, spans);
  return r;
}

// Simulated outputs only: tracing adds host-side allocations (and a span
// log that keeps its capacity across repeats) but must not change anything
// the simulation computes.
Counts SimOnly(Counts c) {
  c.allocs = 0;
  c.alloc_bytes = 0;
  return c;
}

// Checks repeat `index` against the first one. Allocation counts are
// compared only between untraced repeats.
void CheckRepeat(const Repeat& first, const Repeat& r, bool compare_allocs,
                 int index, Report* report) {
  const std::pair<const SystemResult*, const SystemResult*> sides[] = {
      {&first.prism, &r.prism}, {&first.base, &r.base}};
  for (const auto& [a, b] : sides) {
    const std::string who = a == &first.prism ? "prism" : "base";
    if (!b->check_ok) {
      report->Fail(who + " history check failed (repeat " +
                   std::to_string(index) + "): " + b->check_error);
    }
    if (b->counts.samples < kMinSamples) {
      report->Fail(who + " measured only " +
                   std::to_string(b->counts.samples) + " ops");
    }
    const bool same = compare_allocs
                          ? a->counts == b->counts
                          : SimOnly(a->counts) == SimOnly(b->counts);
    if (!same) {
      report->Fail(who + " repeat " + std::to_string(index) +
                   " did not reproduce the first repeat's counts");
    }
  }
}

void AddEndToEnd(const std::vector<Repeat>& reps, double peak_rss_mb,
                 Report* report) {
  std::vector<double> setup, run;
  for (const Repeat& r : reps) {
    setup.push_back(r.setup_s());
    run.push_back(r.run_s());
  }
  report->Add("setup_s", Median(setup), "s");
  report->Add("run_s", Median(run), "s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void AddSimulated(const char* prefix, const SystemResult& s,
                  const WorkloadSpec& spec, Report* report) {
  const Counts& c = s.counts;
  const std::string p = prefix;
  const double window_s = prism::sim::ToSeconds(spec.measure);
  report->Add(p + ".sim_goodput_mops",
              static_cast<double>(c.window_ok) / window_s / 1e6, "Mops");
  report->Add(p + ".sim_p50_us", c.p50_ns / 1e3, "us");
  report->Add(p + ".sim_p999_us", c.p999_ns / 1e3, "us");
  report->Add(p + ".rt_per_op", Ratio(c.tally.round_trips, c.completions),
              "count");
  report->Add(p + ".ok_ratio", Ratio(c.window_ok, c.window_done), "ratio");
}

void AddPerSystemLayers(const char* prefix, const SystemResult& untraced,
                        const SystemResult& traced, Report* report) {
  const Counts& c = untraced.counts;
  const std::string p = prefix;
  const uint64_t ops = c.completions;
  report->Add(p + ".sim.events_per_op", Ratio(c.events, ops), "count");
  report->Add(p + ".sim.timer_events_per_op", Ratio(c.timer_events, ops),
              "count");
  report->Add(p + ".sim.heap_callables", static_cast<double>(c.heap_callables),
              "count");
  report->Add(p + ".sim.host_ns_per_event",
              static_cast<double>(untraced.run_ns) / static_cast<double>(c.events),
              "ns");
  report->Add(p + ".net.msgs_per_op", Ratio(c.messages, ops), "count");
  report->Add(p + ".net.wire_bytes_per_op", Ratio(c.wire_bytes, ops), "B");
  report->Add(p + ".rdma.doorbells_per_op", Ratio(c.tally.doorbells, ops),
              "count");
  report->Add(p + ".rdma.cq_polls_per_op", Ratio(c.tally.cq_polls, ops),
              "count");
  report->Add(p + ".cpu_actions_per_op", Ratio(c.tally.cpu_actions, ops),
              "count");
  report->Add(p + ".service_p99_us", traced.traced.service_p99_ns / 1e3, "us");
  report->Add(p + ".fail_ratio",
              Ratio(c.window_aborted + c.window_error, c.window_done), "ratio");
  report->Add(p + ".workload.wait_p99_us", traced.traced.wait_p99_ns / 1e3,
              "us");
  report->Add(p + ".workload.peak_backlog", static_cast<double>(c.peak_backlog),
              "count");
  report->Add(p + ".workload.ops", static_cast<double>(c.samples), "count");
  report->Add(p + ".common.allocs_per_op", Ratio(c.allocs, ops), "count");
  report->Add(p + ".common.alloc_bytes_per_op", Ratio(c.alloc_bytes, ops), "B");
}

void AddLadder(const Ladder& l, Report* report) {
  report->Add("sim.ns_per_event", l.sim_ns_per_event, "ns");
  report->Add("sim.allocs_per_event", l.sim_allocs_per_event, "count");
  for (const Rung& r : l.rungs) {
    report->Add(r.name + "_ns", r.ns, "ns");
    report->Add(r.name + "_self_ns", r.self_ns, "ns");
    report->Add(r.name + "_events", r.events, "count");
    report->Add(r.name + "_allocs", r.allocs, "count");
  }
  report->Add("kv.load_ns_per_key", l.kv_load_ns_per_key, "ns");
  report->Add("rs.load_ns_per_key", l.rs_load_ns_per_key, "ns");
  report->Add("tx.load_ns_per_key", l.tx_load_ns_per_key, "ns");
}

void PrintRepeat(const char* mode, int i, const Repeat& r) {
  std::printf(
      "repeat %d (%s): setup %.3f s, run %.3f s (prism %.3f, base %.3f), "
      "check %.3f s; samples prism %llu base %llu; history ops prism %llu "
      "base %llu\n",
      i, mode, r.setup_s(), r.run_s(), r.prism.run_ns / 1e9,
      r.base.run_ns / 1e9,
      (r.prism.check_ns + r.base.check_ns) / 1e9,
      static_cast<unsigned long long>(r.prism.counts.samples),
      static_cast<unsigned long long>(r.base.counts.samples),
      static_cast<unsigned long long>(r.prism.history_ops),
      static_cast<unsigned long long>(r.base.history_ops));
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--offered MOPS]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec workload = *found;
  if (args.offered_mops > 0) workload.offered_mops = args.offered_mops;
  const WorkloadSpec* spec = &workload;
  std::printf("workload %s, seed %llu, offered %.2f Mops, window %.1f ms\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              spec->offered_mops, prism::sim::ToMicros(spec->measure) / 1e3);
  const int64_t deadline = HostNowNs() + static_cast<int64_t>(args.seconds * 1e9);
  Report report;
  std::vector<Repeat> plain;
  std::vector<Repeat> traced;
  SpanLog spans;
  // Sampled after the first repeat: later repeats reuse the freed heap, so
  // the first one holds the process's peak footprint.
  double peak_rss_mb = 0;
  if (args.trace == 0) {
    while (HostNowNs() < deadline || plain.size() < kMinRepeats) {
      plain.push_back(RunRepeat(*spec, args.seed, nullptr));
      if (plain.size() == 1) peak_rss_mb = PeakRssMb();
      PrintRepeat("untraced", static_cast<int>(plain.size()), plain.back());
    }
  } else {
    while (HostNowNs() < deadline || traced.size() < kMinTracedPairs) {
      plain.push_back(RunRepeat(*spec, args.seed, nullptr));
      PrintRepeat("untraced", static_cast<int>(plain.size()), plain.back());
      spans.Clear();  // the span file holds the last traced repeat
      traced.push_back(RunRepeat(*spec, args.seed, &spans));
      PrintRepeat("traced", static_cast<int>(traced.size()), traced.back());
    }
  }
  for (size_t i = 0; i < plain.size(); ++i) {
    CheckRepeat(plain[0], plain[i], true, static_cast<int>(i + 1), &report);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    CheckRepeat(plain[0], traced[i], false, static_cast<int>(i + 1), &report);
    if (traced[i].prism.traced != traced[0].prism.traced ||
        traced[i].base.traced != traced[0].base.traced) {
      report.Fail("traced repeat " + std::to_string(i + 1) +
                  " did not reproduce the first one's per-op distributions");
    }
  }

  const Repeat& first = plain.front();
  if (args.trace == 0) {
    AddEndToEnd(plain, peak_rss_mb, &report);
    AddSimulated("prism", first.prism, *spec, &report);
    AddSimulated("base", first.base, *spec, &report);
  } else {
    const Repeat& t = traced.front();
    AddPerSystemLayers("prism", first.prism, t.prism, &report);
    AddPerSystemLayers("base", first.base, t.base, &report);
    std::vector<double> plain_run, traced_run;
    for (const Repeat& r : plain) plain_run.push_back(r.run_s());
    for (const Repeat& r : traced) traced_run.push_back(r.run_s());
    report.Add("obs.trace_overhead", Median(traced_run) / Median(plain_run) - 1,
               "ratio");
    const uint64_t hist_ops = first.prism.history_ops + first.base.history_ops;
    report.Add("check.ns_per_op",
               static_cast<double>(first.prism.check_ns + first.base.check_ns) /
                   static_cast<double>(hist_ops),
               "ns");
    report.Add("check.history_ops", static_cast<double>(hist_ops), "count");
    const int64_t l0 = HostNowNs();
    const SpanId ladder_span = spans.Begin("ladder", Clock::kHost, l0, 0);
    const Ladder ladder = RunLadder(args.seed);
    spans.End(ladder_span, HostNowNs());
    std::printf("ladder: %.3f s\n", (HostNowNs() - l0) / 1e9);
    AddLadder(ladder, &report);
    if (!args.spans_path.empty()) {
      if (!spans.WriteChromeJson(args.spans_path, kMaxOpsWritten)) {
        report.Fail("cannot write span file " + args.spans_path);
      } else {
        std::printf("spans: %zu recorded, written to %s\n", spans.size(),
                    args.spans_path.c_str());
      }
    }
  }
  const uint64_t attempted = first.prism.counts.window_done +
                             first.base.counts.window_done;
  const uint64_t failed = first.prism.counts.window_error +
                          first.base.counts.window_error;
  report.Print(attempted, failed);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
