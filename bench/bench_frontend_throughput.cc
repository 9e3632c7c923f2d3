// Parallel-Frontend serving throughput: requests/sec vs worker-thread count
// x batch size, per policy — plus per-request latency percentiles, the
// persistent-executor vs legacy fork/join pump-overhead pair, and the
// imbalanced-stream stealing pair.
//
// The scale-layer counterpart of bench_apache_throughput: a 3:1
// attack:legit Apache traffic mix from eight multiplexed clients is pushed
// through the Frontend and served by a WorkerPool whose lanes dispatch on
// persistent executor threads — the workers axis IS the thread axis
// (workers=1 is the single-threaded baseline), so the FO rows show
// near-linear scaling with worker count while the crashing policies stay
// restart-bound. Batch size amortizes the per-request process-entry cost;
// under crashing policies it also sets how much work an attack aborts (the
// batch remainder re-queues after the restart), so the FO : crashing gap
// widens with batch size.
//
// Latency: each pump is timed on a steady clock and its duration is
// attributed to every request it served; p50_ns/p99_ns counters report the
// per-request percentiles across the run. That is queueing + service time
// as a client experiences it, and it is what bench_capacity consumes to
// project workers-for-SLO curves (docs/BENCHMARKS.md).
//
// BM_FrontendPumpOverhead{Persistent,Legacy}: batch=1 x 8 workers x one
// request per client per pump — the round-trip-dominated regime where the
// old fork/join's N thread spawns per pump were the fixed cost the
// persistent executor removes. tools/check_perf_smoke.py gates
// persistent >= 1.3x legacy on multi-core runners (skipped when
// hardware_concurrency==1; the pair is meaningless without parallelism).
//
// BM_FrontendImbalanced{Steal,Sticky}: one hot client's backlog on a
// 4-worker pool — sticky-only dispatch serializes it on one lane while
// three sit idle; the steal plan spreads whole batches across them.
//
// BM_WireDecodeMcBrowse / BM_WireEncodeResponse: the wire codec alone, on
// an MC browse line (benign or attack .tgz) and on the listing response a
// failure-oblivious worker gives it — the decode and encode each lane runs
// around ServerApp::Handle.
//
// Args: (policy index into kAllPolicies, worker threads, batch).
// run_bench.sh folds the JSON output into BENCH_throughput.json and CI
// uploads it with the other perf artifacts. The JSON context records the
// worker-thread axis and the machine's hardware concurrency so trajectory
// comparisons across machines stay honest.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/harness/workloads.h"
#include "src/net/frontend.h"

namespace fob {
namespace {

AccessPolicy PolicyArg(const benchmark::State& state) {
  return kAllPolicies[static_cast<size_t>(state.range(0))];
}

// One serving round: 8 clients (6 attackers + 2 legitimate), 32 requests,
// already serialized. Sticky affinity spreads the 8 clients round robin
// over the worker lanes, so every lane has work at up to 8 workers.
struct Round {
  std::vector<std::pair<uint64_t, std::string>> lines;  // client id, wire line
  size_t requests = 0;
};

constexpr uint64_t kClients = 8;

Round MakeRound() {
  Round round;
  ServerRequest attack = MakeRequest(RequestTag::kAttack, "get", MakeApacheAttackUrl());
  ServerRequest legit = MakeRequest(RequestTag::kLegit, "get", "/index.html");
  for (int rep = 0; rep < 4; ++rep) {
    for (uint64_t client = 1; client <= kClients; ++client) {
      // Clients 4 and 8 are the legitimate users; the other six attack.
      const ServerRequest& request = (client % 4 == 0) ? legit : attack;
      round.lines.emplace_back(client, request.Serialize());
    }
  }
  round.requests = round.lines.size();
  return round;
}

// Per-pump durations weighted by the requests each pump served, folded into
// per-request latency percentiles: sort by duration, walk the cumulative
// request weight to the percentile boundary. A request's "latency" is its
// pump's wall time — ingest to response write, queueing included.
class LatencyTrack {
 public:
  void Add(std::chrono::steady_clock::duration elapsed, uint64_t requests) {
    if (requests > 0) {
      samples_.emplace_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(), requests);
    }
  }

  double Percentile(double fraction) const {
    if (samples_.empty()) {
      return 0.0;
    }
    std::vector<std::pair<int64_t, uint64_t>> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    uint64_t total = 0;
    for (const auto& [ns, weight] : sorted) {
      total += weight;
    }
    const double target = fraction * static_cast<double>(total);
    uint64_t seen = 0;
    for (const auto& [ns, weight] : sorted) {
      seen += weight;
      if (static_cast<double>(seen) >= target) {
        return static_cast<double>(ns);
      }
    }
    return static_cast<double>(sorted.back().first);
  }

  void Report(benchmark::State& state) const {
    state.counters["p50_ns"] = benchmark::Counter(Percentile(0.50));
    state.counters["p99_ns"] = benchmark::Counter(Percentile(0.99));
  }

 private:
  std::vector<std::pair<int64_t, uint64_t>> samples_;  // (pump ns, requests)
};

void BM_FrontendThroughput(benchmark::State& state) {
  AccessPolicy policy = PolicyArg(state);
  state.SetLabel(std::string(PolicyName(policy)) + "/threads:" +
                 std::to_string(state.range(1)) + "/batch:" + std::to_string(state.range(2)));
  Frontend frontend(MakeServerAppFactory(Server::kApache, policy),
                    Frontend::Options{.workers = static_cast<size_t>(state.range(1)),
                                      .batch = static_cast<size_t>(state.range(2))});
  for (uint64_t client = 1; client <= kClients; ++client) {
    frontend.Connect(client);
  }
  Round round = MakeRound();
  uint64_t served = 0;
  LatencyTrack latency;
  for (auto _ : state) {
    for (const auto& [client, line] : round.lines) {
      frontend.Connect(client).ClientSend(line);
    }
    auto start = std::chrono::steady_clock::now();
    size_t this_pump = frontend.Pump();
    latency.Add(std::chrono::steady_clock::now() - start, this_pump);
    served += this_pump;
    for (uint64_t client = 1; client <= kClients; ++client) {
      frontend.Connect(client).ClientReceiveAll();  // drain responses
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
  latency.Report(state);
  state.counters["served"] = benchmark::Counter(static_cast<double>(served));
  state.counters["restarts"] =
      benchmark::Counter(static_cast<double>(frontend.restarts()));
  state.counters["worker_threads"] =
      benchmark::Counter(static_cast<double>(state.range(1)));
}

// Policies: FailureOblivious (2), BoundsCheck (1), Standard (0) — the three
// paper configurations; worker threads {1,2,4,8} x batch {1,4,16}. Real
// time, not main-thread CPU time: the lanes run on worker threads.
BENCHMARK(BM_FrontendThroughput)
    ->ArgsProduct({{2, 1, 0}, {1, 2, 4, 8}, {1, 4, 16}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Pump overhead: persistent executor vs legacy fork/join -----------------

// The round-trip-dominated regime: 8 lanes, one tiny request each, batch 1.
// Dispatch cost per pump is all fixed overhead — under legacy dispatch that
// includes 8 thread spawns + joins; under the executor it is one
// condvar-wakeup round on already-running threads.
void RunPumpOverhead(benchmark::State& state, bool legacy) {
  Frontend frontend(
      MakeServerAppFactory(Server::kApache, AccessPolicy::kFailureOblivious),
      Frontend::Options{.workers = 8, .batch = 1, .legacy_dispatch = legacy});
  std::string line = MakeRequest(RequestTag::kLegit, "get", "/index.html").Serialize();
  for (uint64_t client = 1; client <= kClients; ++client) {
    frontend.Connect(client);
  }
  uint64_t served = 0;
  for (auto _ : state) {
    for (uint64_t client = 1; client <= kClients; ++client) {
      frontend.Connect(client).ClientSend(line);
    }
    served += frontend.Pump();
    for (uint64_t client = 1; client <= kClients; ++client) {
      frontend.Connect(client).ClientReceiveAll();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
  // Zero-churn evidence: lifetime executor thread creations, flat across
  // however many pumps the benchmark ran (0 on the legacy path).
  state.counters["executor_threads_started"] =
      benchmark::Counter(static_cast<double>(frontend.executor_threads_started()));
}

void BM_FrontendPumpOverheadPersistent(benchmark::State& state) {
  RunPumpOverhead(state, /*legacy=*/false);
}

void BM_FrontendPumpOverheadLegacy(benchmark::State& state) {
  RunPumpOverhead(state, /*legacy=*/true);
}

BENCHMARK(BM_FrontendPumpOverheadPersistent)->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FrontendPumpOverheadLegacy)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---- Imbalanced stream: stealing vs sticky-only -----------------------------

// One hot client sends 32 requests per pump at a 4-worker pool. Sticky-only
// dispatch serializes the whole backlog on the client's one lane; the steal
// plan hands whole batches to the three idle lanes.
void RunImbalanced(benchmark::State& state, bool steal) {
  Frontend frontend(
      MakeServerAppFactory(Server::kApache, AccessPolicy::kFailureOblivious),
      Frontend::Options{.workers = 4, .batch = 4, .steal = steal});
  std::string line = MakeRequest(RequestTag::kLegit, "get", "/index.html").Serialize();
  LineChannel& hot = frontend.Connect(1);
  uint64_t served = 0;
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      hot.ClientSend(line);
    }
    served += frontend.Pump();
    hot.ClientReceiveAll();
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
  state.counters["stolen_batches"] =
      benchmark::Counter(static_cast<double>(frontend.stats().stolen_batches));
}

void BM_FrontendImbalancedSteal(benchmark::State& state) {
  RunImbalanced(state, /*steal=*/true);
}

void BM_FrontendImbalancedSticky(benchmark::State& state) {
  RunImbalanced(state, /*steal=*/false);
}

BENCHMARK(BM_FrontendImbalancedSteal)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontendImbalancedSticky)->UseRealTime()->Unit(benchmark::kMillisecond);

// ---- Wire codec: the per-request decode/encode a lane pays ----------------

// MC browse traffic as servebench sends it: a legitimate browse of the benign
// archive (Arg 0) or an attack browse of the symlink-overflow one (Arg 1).
// Either .tgz is mostly binary, so most of the ~12 KB line is %XX escapes.
ServerRequest McBrowse(bool attack) {
  ServerRequest browse =
      MakeRequest(attack ? RequestTag::kAttack : RequestTag::kLegit, "browse");
  browse.payload = attack ? MakeMcAttackTgz() : MakeMcBenignTgz();
  return browse;
}

void BM_WireDecodeMcBrowse(benchmark::State& state) {
  const std::string line = McBrowse(state.range(0) != 0).Serialize();
  for (auto _ : state) {
    std::optional<ServerRequest> request = ServerRequest::Deserialize(line);
    benchmark::DoNotOptimize(request);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * line.size()));
  state.counters["line_bytes"] = benchmark::Counter(static_cast<double>(line.size()));
}

// The response a failure-oblivious MC worker gives that browse: one listing
// row per archive entry.
void BM_WireEncodeResponse(benchmark::State& state) {
  std::unique_ptr<ServerApp> app = MakeServerApp(Server::kMc, AccessPolicy::kFailureOblivious);
  const ServerResponse response = app->Handle(McBrowse(state.range(0) != 0));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string line = response.Serialize();
    bytes = line.size();
    benchmark::DoNotOptimize(line);
  }
  state.counters["line_bytes"] = benchmark::Counter(static_cast<double>(bytes));
}

BENCHMARK(BM_WireDecodeMcBrowse)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WireEncodeResponse)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fob

int main(int argc, char** argv) {
  benchmark::AddCustomContext("worker_threads_axis", "1,2,4,8");
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
