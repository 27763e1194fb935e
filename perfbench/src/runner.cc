#include "perfbench/src/runner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "perfbench/src/alloc_count.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/sim/simulator.h"
#include "src/workload/arrival.h"
#include "src/workload/open_loop.h"

namespace perfbench {
namespace {

namespace sim = prism::sim;
namespace net = prism::net;
namespace obs = prism::obs;
namespace workload = prism::workload;

// Offered rates sit near 70 % of the rate at which each baseline saturates
// on this rig: an --offered sweep at seed 1 (README.md, "Offered rates")
// finds Pilaf's goodput capped at 7.14 Mops, ABD-LOCK's at 3.72 Mops and
// FaRM keeping up with at most ~3.1 M txn/s offered. Windows give every
// system 75 000+ measured ops.
constexpr WorkloadSpec kWorkloads[] = {
    {"kv_read", App::kKv, 5.0, sim::Millis(1), sim::Millis(20)},
    {"rs_mixed", App::kRs, 2.6, sim::Millis(1), sim::Millis(30)},
    {"tx_zipf", App::kTx, 2.2, sim::Millis(1), sim::Millis(35)},
};

constexpr int kClientHosts = 11;  // the paper's client machines (§6.2)
constexpr uint64_t kLogicalClients = 100'000;
// Per-host in-flight bound (a client library's QP-depth / credit limit),
// as in bench/fig_overload.
constexpr int kWorkersPerHost = 32;
constexpr sim::Duration kDrain = sim::Millis(20);

// Outcome book of one timed run, written by every op's completion.
struct OpBook {
  sim::Simulator* sim = nullptr;
  Target* target = nullptr;
  sim::TimePoint measure_start = 0;
  sim::TimePoint measure_end = 0;
  Counts* counts = nullptr;
  // Traced run only.
  SpanLog* spans = nullptr;
  Clock clock = Clock::kSimPrism;
  SpanId run_span = 0;
  uint64_t next_op = 1;
  prism::LatencyHistogram wait;
  prism::LatencyHistogram service;

  void Finish(obs::OpTimeline* op, sim::TimePoint fn_start, OpOutcome out) {
    const sim::TimePoint now = sim->Now();
    if (now >= measure_start && now <= measure_end) {
      counts->window_done++;
      switch (out) {
        case OpOutcome::kOk: counts->window_ok++; break;
        case OpOutcome::kAborted: counts->window_aborted++; break;
        case OpOutcome::kError: counts->window_error++; break;
      }
    }
    if (spans == nullptr) return;
    const sim::TimePoint arrival = op->start_ns();
    const uint64_t id = next_op++;
    const SpanId s = spans->Add("op", clock, arrival, now, run_span, id);
    spans->Add("op.fn", clock, fn_start, now, s, id);
    // Same window as workload::Recorder: arrived and completed inside.
    if (arrival >= measure_start && now <= measure_end) {
      wait.Record(fn_start - arrival);
      service.Record(now - fn_start);
    }
  }
};

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

SystemResult RunSystem(const WorkloadSpec& spec, Side side, uint64_t seed,
                       SpanLog* spans) {
  SystemResult res;
  const int64_t t0 = HostNowNs();
  const SpanId sys_span =
      spans ? spans->Begin(side == Side::kPrism ? "prism" : "base", Clock::kHost,
                           t0, 0)
            : 0;
  const SpanId setup_span =
      spans ? spans->Begin("setup", Clock::kHost, t0, sys_span) : 0;

  sim::Simulator simulator;
  net::Fabric fabric(&simulator, net::CostModel::EvalCluster40G());
  std::unique_ptr<Target> target = MakeTarget(spec.app, side, &fabric, seed);
  std::vector<net::HostId> hosts;
  for (int i = 0; i < kClientHosts; ++i) {
    hosts.push_back(fabric.AddHost("client-host-" + std::to_string(i)));
  }
  target->Prepare(hosts);

  Counts& c = res.counts;
  OpBook book;
  book.sim = &simulator;
  book.target = target.get();
  book.counts = &c;
  book.measure_start = simulator.Now() + spec.warmup;
  book.measure_end = book.measure_start + spec.measure;
  std::unique_ptr<obs::TimelineStore> timelines;
  if (spans != nullptr) {
    timelines = std::make_unique<obs::TimelineStore>();
    book.spans = spans;
    book.clock = side == Side::kPrism ? Clock::kSimPrism : Clock::kSimBase;
  }
  // Same master seed for both sides: both systems see the same arrivals.
  prism::Rng master(seed);
  const double rate_per_host = spec.offered_mops * 1e6 / kClientHosts;
  const std::vector<OpClassSpec> classes = target->Classes();
  std::vector<std::unique_ptr<workload::OpenLoopPool>> pools;
  uint64_t remaining = kLogicalClients;
  for (size_t h = 0; h < hosts.size(); ++h) {
    const uint64_t n_here = remaining / (hosts.size() - h);
    remaining -= n_here;
    workload::PoolOptions popts;
    popts.workers = kWorkersPerHost;
    auto pool = std::make_unique<workload::OpenLoopPool>(
        &simulator, workload::ArrivalSpec::Poisson(rate_per_host), n_here,
        master.Fork(), popts);
    if (timelines != nullptr) {
      pool->set_timelines(timelines.get(), &fabric.obs(), hosts[h]);
    }
    for (size_t k = 0; k < classes.size(); ++k) {
      OpBook* b = &book;
      pool->AddClass(classes[k].name, classes[k].weight,
                     [b, k, h](uint64_t draw,
                               obs::OpTimeline* op) -> sim::Task<void> {
                       const sim::TimePoint start = b->sim->Now();
                       const OpOutcome out =
                           co_await b->target->Execute(k, h, draw);
                       b->Finish(op, start, out);
                     });
    }
    pool->Start(book.measure_start, book.measure_end);
    pools.push_back(std::move(pool));
  }

  const int64_t t1 = HostNowNs();
  res.setup_ns = t1 - t0;
  if (spans != nullptr) {
    spans->End(setup_span, t1);
    book.run_span = spans->Begin("run", Clock::kHost, t1, sys_span);
  }
  const AllocCount a0 = Allocations();
  const uint64_t ev0 = simulator.executed_events();
  const sim::Simulator::Stats st0 = simulator.stats();
  const uint64_t msg0 = fabric.total_messages();
  const uint64_t bytes0 = fabric.total_wire_bytes();
  const obs::TransportTally tally0 = target->Tally();  // rs loads in Prepare

  simulator.RunUntil(book.measure_end + kDrain);
  simulator.Run();
  for (const auto& p : pools) p->CheckDrained();
  target->FlushReclaim();
  simulator.Run();

  const AllocCount da = Allocations() - a0;
  const int64_t t2 = HostNowNs();
  res.run_ns = t2 - t1;

  c.allocs = da.calls;
  c.alloc_bytes = da.bytes;
  c.events = simulator.executed_events() - ev0;
  const sim::Simulator::Stats& st = simulator.stats();
  c.timer_events = st.timer_events - st0.timer_events;
  c.heap_callables = st.heap_callables - st0.heap_callables;
  c.messages = fabric.total_messages() - msg0;
  c.wire_bytes = fabric.total_wire_bytes() - bytes0;
  c.tally = target->Tally() - tally0;
  prism::LatencyHistogram latency;
  for (const auto& p : pools) {
    for (size_t k = 0; k < p->n_classes(); ++k) {
      latency.Merge(p->recorder(k).hist());
    }
    c.completions += p->completions();
    c.peak_backlog = std::max<uint64_t>(c.peak_backlog, p->peak_backlog());
  }
  c.samples = static_cast<uint64_t>(latency.count());
  c.p50_ns = latency.QuantileNanos(0.5);
  c.p999_ns = latency.QuantileNanos(0.999);
  res.traced.wait_p99_ns = book.wait.QuantileNanos(0.99);
  res.traced.service_p99_ns = book.service.QuantileNanos(0.99);

  SpanId check_span = 0;
  if (spans != nullptr) {
    spans->End(book.run_span, t2);
    check_span = spans->Begin("check", Clock::kHost, t2, sys_span);
  }
  const prism::check::CheckResult check = target->Check();
  res.check_ok = check.ok;
  res.check_error = check.error;
  res.history_ops = target->HistoryOps();
  const int64_t t3 = HostNowNs();
  res.check_ns = t3 - t2;
  if (spans != nullptr) {
    spans->End(check_span, t3);
    spans->End(sys_span, t3);
  }
  return res;
}

}  // namespace perfbench
