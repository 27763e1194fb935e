#include "perfbench/src/ladder.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "perfbench/src/alloc_count.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/targets.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/obs/complexity.h"
#include "src/prism/service.h"
#include "src/rdma/memory.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace perfbench {
namespace {

namespace sim = prism::sim;
namespace net = prism::net;
namespace obs = prism::obs;
namespace rdma = prism::rdma;
namespace rpc = prism::rpc;
namespace core = prism::core;
using prism::Bytes;
using sim::Task;

constexpr int kBatches = 5;
constexpr int kWarmupCalls = 200;
constexpr int kVerbCalls = 20000;
constexpr int kAppCalls = 5000;
constexpr uint64_t kEngineEvents = 200000;  // per batch

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Times `calls` single calls of `call` (each followed by a run to
// completion) in kBatches batches; counts come from the whole run.
Rung Measure(std::string name, sim::Simulator& s, const net::Fabric& fabric,
             int calls, const std::function<void(int)>& call,
             const std::function<obs::TransportTally()>& tally) {
  for (int i = 0; i < kWarmupCalls; ++i) {
    call(i);
    s.Run();
  }
  const AllocCount a0 = Allocations();
  const uint64_t ev0 = s.executed_events();
  const uint64_t msg0 = fabric.total_messages();
  const obs::TransportTally t0 = tally();
  std::vector<double> per_call;
  const int per_batch = calls / kBatches;
  int i = kWarmupCalls;
  for (int b = 0; b < kBatches; ++b) {
    const int64_t h0 = HostNowNs();
    for (int j = 0; j < per_batch; ++j) {
      call(i++);
      s.Run();
    }
    per_call.push_back(static_cast<double>(HostNowNs() - h0) / per_batch);
  }
  const double n = static_cast<double>(per_batch) * kBatches;
  const AllocCount da = Allocations() - a0;
  const obs::TransportTally dt = tally() - t0;
  Rung r;
  r.name = std::move(name);
  r.ns = Median(per_call);
  r.events = static_cast<double>(s.executed_events() - ev0) / n;
  r.allocs = static_cast<double>(da.calls) / n;
  r.msgs = static_cast<double>(fabric.total_messages() - msg0) / n;
  r.rt = static_cast<double>(dt.round_trips) / n;
  r.cpu = static_cast<double>(dt.cpu_actions) / n;
  return r;
}

void EngineRung(Ladder* out) {
  sim::Simulator s;
  uint64_t left = 0;
  struct Tick {
    sim::Simulator* s;
    uint64_t* left;
    void operator()() const {
      if (--*left > 0) s->Schedule(sim::Nanos(100), Tick{s, left});
    }
  };
  std::vector<double> per_event;
  const AllocCount a0 = Allocations();
  for (int b = 0; b < kBatches; ++b) {
    left = kEngineEvents;
    const int64_t h0 = HostNowNs();
    s.Schedule(sim::Nanos(100), Tick{&s, &left});
    s.Run();
    per_event.push_back(static_cast<double>(HostNowNs() - h0) / kEngineEvents);
  }
  out->sim_ns_per_event = Median(per_event);
  out->sim_allocs_per_event = static_cast<double>((Allocations() - a0).calls) /
                              (static_cast<double>(kEngineEvents) * kBatches);
}

// Fabric, verb, RPC and chain rungs against one server host.
void TransportRungs(Ladder* out) {
  sim::Simulator s;
  net::Fabric fabric(&s, net::CostModel::EvalCluster40G());
  const net::HostId server = fabric.AddHost("server");
  const net::HostId client = fabric.AddHost("client");
  rdma::AddressSpace mem(1 << 24);
  core::PrismServer prism_server(&fabric, server, core::Deployment::kSoftware,
                                 &mem);
  const rdma::MemoryRegion region =
      *mem.CarveAndRegister(1 << 20, rdma::kRemoteAll);
  rdma::RdmaService rdma_service(&fabric, server,
                                 rdma::Backend::kHardwareNic, &mem);
  rpc::RpcServer rpc_server(&fabric, server);
  rpc_server.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
    co_return rpc::Message::Empty(64);
  });
  rdma::RdmaClient rdma_client(&fabric, client);
  rpc::RpcClient rpc_client(&fabric, client);
  core::PrismClient prism_client(&fabric, client);

  // Layout: [meta 16 B][scratch 16 B][pointer slot] ... data at +4096,
  // free-list buffers from +64 KiB.
  const rdma::Addr meta = region.base;
  const rdma::Addr scratch = region.base + 64;
  const rdma::Addr slot = region.base + 128;
  const rdma::Addr data = region.base + 4096;
  mem.StoreWord(slot, data);
  const uint32_t queue = prism_server.freelists().CreateQueue(kValueSize);
  for (uint64_t i = 0; i < 64; ++i) {
    prism_server.PostBuffers(queue, {region.base + 65536 + i * kValueSize});
  }
  const rdma::RKey rkey = region.rkey;
  auto none = [] { return obs::TransportTally{}; };

  uint64_t delivered = 0;
  out->rungs.push_back(Measure(
      "net.send_deliver", s, fabric, kVerbCalls,
      [&](int) { fabric.Send(client, server, 64, [&delivered] { delivered++; }); },
      none));
  PRISM_CHECK_GT(delivered, 0u);

  auto rdma_tally = [&] { return rdma_client.tally(); };
  out->rungs.push_back(Measure(
      "rdma.read", s, fabric, kVerbCalls,
      [&](int) {
        sim::Spawn([&]() -> Task<void> {
          auto r = co_await rdma_client.Read(&rdma_service, rkey, data,
                                             kValueSize);
          PRISM_CHECK(r.ok()) << r.status();
        });
      },
      rdma_tally));
  out->rungs.push_back(Measure(
      "rdma.cas", s, fabric, kVerbCalls,
      [&](int) {
        sim::Spawn([&]() -> Task<void> {
          auto r = co_await rdma_client.CompareSwap(&rdma_service, rkey, meta,
                                                    0, 0);
          PRISM_CHECK(r.ok()) << r.status();
        });
      },
      rdma_tally));
  out->rungs.push_back(Measure(
      "rpc.call", s, fabric, kVerbCalls,
      [&](int) {
        sim::Spawn([&]() -> Task<void> {
          rpc::MessagePtr req = rpc::Message::Empty(64);
          auto r = co_await rpc_client.Call(&rpc_server, 1, req);
          PRISM_CHECK(r.ok()) << r.status();
        });
      },
      [&] { return rpc_client.tally(); }));

  auto prism_tally = [&] { return prism_client.tally(); };
  out->rungs.push_back(Measure(
      "prism.chain1", s, fabric, kVerbCalls,
      [&](int) {
        sim::Spawn([&]() -> Task<void> {
          core::Chain chain;
          chain.push_back(core::Op::IndirectRead(rkey, slot, kValueSize));
          auto r = co_await prism_client.Execute(&prism_server,
                                                 std::move(chain));
          PRISM_CHECK(r.ok() && (*r)[0].executed && (*r)[0].status.ok());
        });
      },
      prism_tally));
  // PRISM-RS/TX install shape: stage a word, ALLOCATE a 512 B buffer with
  // its address redirected into scratch, then a conditional CAS.
  out->rungs.push_back(Measure(
      "prism.chain3", s, fabric, kVerbCalls,
      [&](int) {
        sim::Spawn([&]() -> Task<void> {
          core::Chain chain;
          chain.push_back(core::Op::Write(rkey, scratch, Bytes(8, 1)));
          chain.push_back(core::Op::Allocate(rkey, queue, Bytes(kValueSize, 2))
                              .RedirectTo(scratch + 8)
                              .Conditional());
          chain.push_back(core::Op::Cas(rkey, meta, Bytes(8, 0)).Conditional());
          auto r = co_await prism_client.Execute(&prism_server,
                                                 std::move(chain));
          PRISM_CHECK(r.ok()) << r.status();
          PRISM_CHECK((*r)[1].executed && (*r)[2].cas_swapped);
          // Recycle the buffer so the free list never drains.
          prism_server.PostBuffers(queue, {mem.LoadWord(scratch + 8)});
        });
      },
      prism_tally));
}

// One app op per call through the benchmark's own targets; the target's
// construction and Prepare are the store load.
Rung AppRung(const char* name, App app, Side side, uint64_t seed,
             double* load_ns_per_key) {
  sim::Simulator s;
  net::Fabric fabric(&s, net::CostModel::EvalCluster40G());
  const int64_t h0 = HostNowNs();
  std::unique_ptr<Target> target = MakeTarget(app, side, &fabric, seed);
  target->Prepare({fabric.AddHost("client")});
  *load_ns_per_key = static_cast<double>(HostNowNs() - h0) /
                     static_cast<double>(target->StoreKeys());
  prism::Rng rng(seed);
  Target* t = target.get();
  Rung r = Measure(
      name, s, fabric, kAppCalls,
      [&](int) {
        const uint64_t draw = rng.NextU64();
        sim::Spawn([t, draw]() -> Task<void> {
          const OpOutcome o = co_await t->Execute(0, 0, draw);
          PRISM_CHECK(o == OpOutcome::kOk);
        });
      },
      [t] { return t->Tally(); });
  target->FlushReclaim();
  s.Run();
  const prism::check::CheckResult check = target->Check();
  PRISM_CHECK(check.ok) << name << ": " << check.error;
  return r;
}

const Rung& Find(const Ladder& l, const std::string& name) {
  for (const Rung& r : l.rungs) {
    if (r.name == name) return r;
  }
  PRISM_CHECK(false) << "no rung " << name;
  return l.rungs.front();
}

// Self time: a rung minus the lower rungs it invokes, weighted by its
// measured per-call counts.
void ComputeSelf(Ladder* l) {
  const double ev = l->sim_ns_per_event;
  const double send = Find(*l, "net.send_deliver").ns;
  const double read = Find(*l, "rdma.read").ns;
  const double cas = Find(*l, "rdma.cas").ns;
  const double call = Find(*l, "rpc.call").ns;
  const double chain1 = Find(*l, "prism.chain1").ns;
  const double chain3 = Find(*l, "prism.chain3").ns;
  for (Rung& r : l->rungs) {
    double lower = 0;
    if (r.name == "net.send_deliver") {
      lower = r.events * ev;
    } else if (r.name == "kv.prism_get") {
      lower = r.rt * chain1;
    } else if (r.name == "kv.pilaf_get") {
      lower = r.rt * read;
    } else if (r.name == "rs.prism_put") {
      lower = r.rt / 2 * (chain1 + chain3);  // read phase + write phase
    } else if (r.name == "rs.abd_put") {
      lower = r.rt / 2 * (cas + read);  // lock/unlock CAS + data verbs
    } else if (r.name == "tx.prism_rmw") {
      lower = chain1 + (r.rt - 1) * chain3;  // read, then commit chains
    } else if (r.name == "tx.farm_rmw") {
      lower = r.cpu * call + (r.rt - r.cpu) * read;  // RPCs + RDMA reads
    } else {
      lower = r.msgs * send;  // verb, call or chain over the fabric
    }
    r.self_ns = r.ns - lower;
  }
}

}  // namespace

Ladder RunLadder(uint64_t seed) {
  Ladder l;
  EngineRung(&l);
  TransportRungs(&l);
  double kv_prism = 0, kv_base = 0, rs_prism = 0, rs_base = 0, tx_prism = 0,
         tx_base = 0;
  l.rungs.push_back(AppRung("kv.prism_get", App::kKv, Side::kPrism, seed, &kv_prism));
  l.rungs.push_back(AppRung("kv.pilaf_get", App::kKv, Side::kBase, seed, &kv_base));
  l.rungs.push_back(AppRung("rs.prism_put", App::kRs, Side::kPrism, seed, &rs_prism));
  l.rungs.push_back(AppRung("rs.abd_put", App::kRs, Side::kBase, seed, &rs_base));
  l.rungs.push_back(AppRung("tx.prism_rmw", App::kTx, Side::kPrism, seed, &tx_prism));
  l.rungs.push_back(AppRung("tx.farm_rmw", App::kTx, Side::kBase, seed, &tx_base));
  l.kv_load_ns_per_key = (kv_prism + kv_base) / 2;
  l.rs_load_ns_per_key = (rs_prism + rs_base) / 2;
  l.tx_load_ns_per_key = (tx_prism + tx_base) / 2;
  ComputeSelf(&l);
  return l;
}

}  // namespace perfbench
