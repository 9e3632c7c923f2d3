// Frontend: multiplexes N interleaved client sessions onto a WorkerPool of
// shard-isolated workers, dispatching batches on persistent worker threads.
//
// Each client holds a LineChannel (src/net/channel.h) and writes serialized
// ServerRequests; the Frontend polls the channels fairly (one line per
// client per sweep, so no client can starve the others) and gathers requests
// into per-worker *lanes*. Lane assignment is sticky session affinity: the
// first request from a client id binds it to the least-loaded lane at that
// moment (round robin breaks ties, so an idle frontend degrades to plain
// round robin), and every later request from that client is served by the
// same worker/shard — which both preserves per-client request ordering
// under parallel dispatch and keeps whatever per-shard state a client's
// requests accumulate (error-log history, heap layout) on one worker. A
// client whose channel reaches EOF (closed and drained) has its affinity
// entry evicted at the end of the pump, so a long-lived Frontend does not
// leak one map entry per client ever seen.
//
// The pump thread (the caller of Pump) does no wire codec work. Ingest
// only stamps each received line with its submission seq and keeps it raw;
// the pump thread then partitions, plans steals, sorts responses by seq and
// writes them. The lane that serves a request decodes its line
// (ServerRequest::Deserialize) just before ServerApp::Handle and encodes the
// response (ServerResponse::Serialize) just after, so the codec's per-byte
// cost — most of a request's wire cost on large payloads such as MC's
// escaped .tgz uploads — runs in parallel across lanes instead of as a
// serial stage ahead of every pump. A line that does not decode is answered
// "malformed request line" by its lane, never reaches an app, is counted in
// Stats::rejected, and is written in the same seq order as every other
// response. Only the rare shed responses are encoded on the pump thread.
//
// Dispatch is truly parallel and thread-churn free: the Frontend owns a
// LaneExecutor (src/net/executor.h) with one long-lived worker thread per
// lane, parked on a condition variable between pumps — a steady-state pump
// creates zero threads (Options::legacy_dispatch restores the old
// fork/join-per-pump path as the benchmark baseline). Each pump partitions
// the backlog into per-lane batch lists, then — single-threaded, before any
// wakeup — computes a deterministic *steal plan*: whole batches move from
// the most-backlogged lanes to lanes that were idle this pump (ties broken
// by lane id), so one hot client cannot serialize the pool while neighbors
// park. A stolen batch runs on the thief's worker/shard; responses are
// written post-join in original submission order regardless of which lane
// served them, so same stream + seed + workers still yields identical
// merged responses (the determinism property tests/test_shard.cc pins,
// stealing included).
//
// Backpressure: Options::shed_watermark caps each lane's per-pump queue
// depth. A new request past the watermark is never silently queued — it is
// answered immediately with an explicit overloaded response
// (kOverloadedStatus); crash-requeued batch remainders are exempt, so
// recovery work cannot be shed. Shed/stolen/depth counters live in
// Frontend::Stats and fold into the merged MemLog's Summary().
//
// Crash handling reproduces the §4.3.2 worker-pool dynamics at batch
// granularity, per lane: when a worker dies mid-batch, the requests already
// served keep their responses, the request that killed the worker is
// answered with an error (that client's request is lost, exactly like a
// child segfaulting mid-connection), the worker is replaced on its own lane
// thread (paying full re-initialization there while other lanes stream on),
// and the unserved batch remainder is re-queued as the lane's next batch —
// so a crashing policy pays restart + re-batch latency while a
// failure-oblivious pool streams on.
//
// Per-shard MemLogs merge deterministically in ascending worker/shard-id
// order via MergedLog(); see src/net/README.md for the shard model, the
// steal-plan rule, and the merge ordering rule.

#ifndef SRC_NET_FRONTEND_H_
#define SRC_NET_FRONTEND_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/server_app.h"
#include "src/net/channel.h"
#include "src/net/executor.h"
#include "src/runtime/memlog.h"
#include "src/runtime/policy_spec.h"
#include "src/runtime/process.h"

namespace fob {

class AdaptivePolicyController;

class Frontend {
 public:
  // Status code of the explicit overload response shed requests receive
  // (distinct from 500, the worker-crash error).
  static constexpr int kOverloadedStatus = 503;

  struct Options {
    // Worker count == lane count == shard count: each worker is served by
    // its own persistent executor thread (a round with one active lane runs
    // inline on the caller's thread, so workers=1 is the single-threaded
    // baseline and starts no executor).
    size_t workers = 2;
    // Requests dispatched per lane per process entry. 1 degenerates to the
    // legacy per-request Dispatch behavior.
    size_t batch = 8;
    // Applied to every worker (and every replacement): nonzero turns a
    // hung worker into a kBudgetExhausted crash the pool recovers from.
    uint64_t worker_access_budget = 0;
    // Serve multi-lane rounds by forking and joining a std::thread per
    // active lane every pump — the pre-executor behavior, kept as the
    // baseline the pump-overhead perf gate measures against.
    bool legacy_dispatch = false;
    // Plan-based work stealing: at pump time (single-threaded) whole
    // batches are reassigned from the most-backlogged lanes to this pump's
    // idle lanes, ties broken by lane id. Deterministic; disable to pin
    // sticky-only dispatch (shard-history-sensitive learners do).
    bool steal = true;
    // Per-lane queue-depth watermark per pump; 0 disables shedding. A new
    // request that would push its lane past the watermark is answered with
    // an explicit kOverloadedStatus response instead of being queued.
    // Crash-requeued batch remainders are exempt.
    size_t shed_watermark = 0;
  };

  struct Stats {
    uint64_t served = 0;     // responses written, error/overload responses included
    uint64_t failed = 0;     // requests whose worker died serving them
    uint64_t requeued = 0;   // batch-remainder requests re-queued after a crash
    uint64_t batches = 0;    // lane dispatches (process entries) used
    uint64_t rejected = 0;   // lines that did not parse as a ServerRequest
    uint64_t shed = 0;       // requests answered kOverloadedStatus at the watermark
    uint64_t stolen_batches = 0;  // whole batches reassigned by the steal plan
    uint64_t max_lane_depth = 0;  // high-water per-lane queue depth (post-shed)
  };

  using Factory = WorkerPool<ServerApp>::Factory;

  Frontend(Factory factory, const Options& options);

  // Attaches a client connection. The returned channel is owned by the
  // Frontend and stable until Disconnect; the client writes serialized
  // requests with ClientSend and half-closes with ClientClose when done.
  LineChannel& Connect(uint64_t client_id);

  // Forgets a client entirely: frees its channel and its lane-affinity
  // entry. Call only once the client is closed and drained — the adaptive
  // epoch loop retires each epoch's client namespace this way, so channel
  // polling cost does not grow with epoch count. (The affinity entry alone
  // is evicted automatically once the channel reaches EOF.)
  void Disconnect(uint64_t client_id);

  // Ingests every line currently readable across all channels (fair,
  // round-robin) and serves the pending queue in parallel lane batches.
  // Returns the number of responses written this pump.
  size_t Pump();

  // Pumps until every connected channel is closed and drained and no
  // requests are pending. Returns total responses written.
  size_t Run();

  // True when nothing is pending and every channel has reached EOF.
  bool Idle() const;

  // The worker/shard this client's requests are (or would be) served by.
  // First sight binds to the least-loaded lane at that instant (current
  // pump's partial partition depth; all-equal depths fall back to round
  // robin) and the binding never changes while the client's channel is
  // live. Note stealing can run *batches* of an over-backlogged lane on
  // another worker; the sticky lane is where a client's requests queue and
  // serve by default.
  size_t LaneOf(uint64_t client_id);

  // Live lane-affinity entries (monitoring/tests): entries are evicted when
  // a client's channel reaches EOF, so this tracks open clients, not every
  // client ever seen.
  size_t affinity_size() const { return affinity_.size(); }

  // Lifetime executor thread creations: equals `workers` right after
  // construction (0 for workers=1 or legacy dispatch) and never grows —
  // steady-state pumps create zero threads.
  uint64_t executor_threads_started() const {
    return executor_ != nullptr ? executor_->threads_started() : 0;
  }

  // Deterministic merged view of every worker shard's error log, folded in
  // ascending worker/shard-id order (the canonical merge rule), plus the
  // frontend's scheduler counters (shed/stolen/depth).
  MemLog MergedLog();

  // Epoch-boundary respec of every live worker shard (Memory::Rebind: logs,
  // heap and handler-bank state survive; only SiteId -> policy resolution
  // changes) — and of every *future* crash replacement, which is
  // constructed by the original factory (under whatever spec it captured,
  // which must be a continuing one so construction cannot fault) and then
  // rebound to the latest respec before serving. Re-arms each worker's
  // hang budget to `accesses + worker_access_budget`, so budget exhaustion
  // stays an intra-epoch hang signal rather than a lifetime cap. Must be
  // called between pumps: no lane threads may be running.
  void Rebind(const PolicySpec& spec);

  // Feeds every worker shard's cumulative per-site error aggregates to the
  // controller, in ascending worker/shard-id order — the same deterministic
  // rule MemLog::Merge callers follow — so all lanes learn from each
  // other's errors and the learning trajectory is reproducible no matter
  // how lane threads interleaved. Call once per epoch, between pumps.
  void FeedSiteObservations(AdaptivePolicyController& controller);

  const Stats& stats() const { return stats_; }
  uint64_t restarts() const { return pool_.restarts(); }
  WorkerPool<ServerApp>& pool() { return pool_; }

 private:
  struct Pending {
    uint64_t client_id = 0;
    // Global submission order, stamped at ingest. Responses are written in
    // ascending seq post-join, which keeps per-client FIFO order intact
    // even when the steal plan splits one client's batches across lanes.
    uint64_t seq = 0;
    // Crash-remainder (or exception-path) requeue: exempt from shedding.
    bool requeued = false;
    // The request's wire line as received; the serving lane decodes it.
    std::string line;
  };

  void Ingest();
  void ServePending();
  void EvictClosedAffinities();
  ServerResponse OverloadedResponse(size_t lane) const;
  WorkerPool<ServerApp>::IndexedFactory MakeWorkerFactory(Factory factory);
  void ArmBudget(Memory& memory);

  Options options_;
  // The latest Rebind spec, applied to crash replacements after the base
  // factory constructs them. Written only between pumps (no lane threads
  // running); read by the factory on lane threads during dispatch — the
  // executor's round mutex (or the legacy thread spawn) orders those reads
  // after the write.
  std::optional<PolicySpec> respec_;
  // Per-worker-slot construction counter: bumped by the factory on every
  // (re)build, so observers can tell a replacement's fresh log from the
  // dead worker's. Each slot is written only by the lane thread replacing
  // that worker (distinct elements, no sharing); read by the main thread
  // after the round completes.
  std::vector<uint64_t> incarnations_;
  WorkerPool<ServerApp> pool_;
  // Persistent lane threads; null for workers=1 (always inline) and for
  // legacy dispatch. Destroyed (drained + joined) before the pool.
  std::unique_ptr<LaneExecutor> executor_;
  std::map<uint64_t, std::unique_ptr<LineChannel>> clients_;
  std::map<uint64_t, size_t> affinity_;  // client id -> sticky lane
  size_t next_lane_ = 0;                 // round-robin tie-break cursor
  // Scratch: requests assigned per lane during the current pump's
  // partition (what "least-loaded" and the shed watermark measure).
  // All-zero between pumps.
  std::vector<size_t> lane_depth_;
  uint64_t next_seq_ = 0;
  std::deque<Pending> pending_;
  Stats stats_;
};

}  // namespace fob

#endif  // SRC_NET_FRONTEND_H_
