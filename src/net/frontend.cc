#include "src/net/frontend.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/runtime/adaptive.h"

namespace fob {

namespace {

// Runs on a lane thread: decodes one wire line, serves it on `app` and
// encodes the response. A line that does not decode is answered "malformed
// request line" without reaching the app, and counted in `rejected`.
std::string ServeLine(ServerApp& app, uint64_t client_id, const std::string& line,
                      uint64_t& rejected) {
  std::optional<ServerRequest> request = ServerRequest::Deserialize(line);
  if (!request) {
    ++rejected;
    ServerResponse malformed;
    malformed.error = "malformed request line";
    return malformed.Serialize();
  }
  request->client_id = client_id;  // the connection authenticates the id
  return app.Handle(*request).Serialize();
}

}  // namespace

// Wraps the caller's factory into the pool's index-aware form: every worker
// (and every crash replacement for it) gets the access budget applied and
// its shard stamped with the stable worker index — the identity the
// deterministic log merge orders by. When a Rebind spec is in force, the
// replacement is rebound to it after construction, so a crash replacement
// serves under the current epoch's spec even though the base factory
// captured the construction-time (continuing) spec.
WorkerPool<ServerApp>::IndexedFactory Frontend::MakeWorkerFactory(Factory factory) {
  return [this, factory = std::move(factory)](size_t index) {
    std::unique_ptr<ServerApp> app = factory();
    ++incarnations_[index];
    ArmBudget(app->memory());
    app->memory().set_shard_id(static_cast<uint32_t>(index));
    if (respec_.has_value()) {
      app->memory().Rebind(*respec_);
    }
    return app;
  };
}

void Frontend::ArmBudget(Memory& memory) {
  if (options_.worker_access_budget != 0) {
    memory.set_access_budget(memory.access_count() + options_.worker_access_budget);
  }
}

Frontend::Frontend(Factory factory, const Options& options)
    : options_(options),
      incarnations_(options.workers == 0 ? 1 : options.workers, 0),
      pool_(options.workers == 0 ? 1 : options.workers, MakeWorkerFactory(std::move(factory))),
      lane_depth_(pool_.size(), 0) {
  // One persistent parked thread per lane. A single-lane pool always serves
  // inline and a legacy-dispatch pool forks per pump, so neither needs one.
  if (pool_.size() > 1 && !options_.legacy_dispatch) {
    executor_ = std::make_unique<LaneExecutor>(pool_.size());
  }
}

void Frontend::Rebind(const PolicySpec& spec) {
  respec_ = spec;
  for (size_t index = 0; index < pool_.size(); ++index) {
    Memory& memory = pool_.worker(index).memory();
    memory.Rebind(spec);
    ArmBudget(memory);
  }
}

void Frontend::FeedSiteObservations(AdaptivePolicyController& controller) {
  for (size_t index = 0; index < pool_.size(); ++index) {
    Memory& memory = pool_.worker(index).memory();
    controller.ObserveShardLog(memory.shard_id(), memory.log(), incarnations_[index]);
  }
}

LineChannel& Frontend::Connect(uint64_t client_id) {
  std::unique_ptr<LineChannel>& slot = clients_[client_id];
  if (slot == nullptr) {
    slot = std::make_unique<LineChannel>();
  }
  return *slot;
}

void Frontend::Disconnect(uint64_t client_id) {
  clients_.erase(client_id);
  affinity_.erase(client_id);
}

size_t Frontend::LaneOf(uint64_t client_id) {
  auto it = affinity_.find(client_id);
  if (it != affinity_.end()) {
    return it->second;
  }
  // Least-loaded bind, measured on the current pump's partial partition
  // depth. The scan starts at the round-robin cursor and only a *strictly*
  // shallower lane displaces the candidate, so all-equal depths (every lane
  // idle, the common case) degrade to exact round robin — which keeps the
  // binding deterministic for a fixed arrival order.
  const size_t lane_count = pool_.size();
  size_t best = next_lane_ % lane_count;
  for (size_t step = 1; step < lane_count; ++step) {
    const size_t lane = (next_lane_ + step) % lane_count;
    if (lane_depth_[lane] < lane_depth_[best]) {
      best = lane;
    }
  }
  next_lane_ = (best + 1) % lane_count;
  affinity_.emplace(client_id, best);
  return best;
}

void Frontend::Ingest() {
  // Fair sweep: take at most one line per client per round, so a chatty
  // client cannot starve the others — its requests interleave. A line is
  // only stamped and kept here; the lane that serves it decodes it.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [client_id, channel] : clients_) {
      LineChannel::Recv recv = channel->ServerReceiveLine();
      if (!recv.has_line()) {
        continue;  // kNoInput or kClosed: nothing to read from this client
      }
      progress = true;
      pending_.push_back(Pending{client_id, next_seq_++, /*requeued=*/false, std::move(recv.line)});
    }
  }
}

ServerResponse Frontend::OverloadedResponse(size_t lane) const {
  ServerResponse response;
  response.status = kOverloadedStatus;
  response.error = "overloaded: lane " + std::to_string(lane) + " past watermark " +
                   std::to_string(options_.shed_watermark);
  return response;
}

void Frontend::EvictClosedAffinities() {
  for (auto it = affinity_.begin(); it != affinity_.end();) {
    auto client = clients_.find(it->first);
    if (client == clients_.end() || client->second->ServerAtEof()) {
      it = affinity_.erase(it);
    } else {
      ++it;
    }
  }
}

void Frontend::ServePending() {
  const size_t batch_limit = options_.batch == 0 ? 1 : options_.batch;
  const size_t lane_count = pool_.size();

  // An encoded response waiting to be written, tagged with its request's
  // submission seq. Every response this pump — served, malformed-line
  // reject, crash error, shed — funnels into one seq-sorted write, so a
  // client reads responses in the order it sent requests no matter which
  // lane (or no lane) produced each one.
  struct Outgoing {
    uint64_t seq = 0;
    uint64_t client_id = 0;
    std::string line;
  };
  std::vector<Outgoing> shed;

  // Partition the backlog: each request moves to its client's sticky lane
  // unless that lane is already past the shed watermark, in which case the
  // request is answered kOverloadedStatus instead of queued — explicit
  // backpressure, never a silently growing queue. Crash-requeued work is
  // exempt: recovery must drain.
  std::fill(lane_depth_.begin(), lane_depth_.end(), 0);
  std::vector<std::deque<Pending>> lanes(lane_count);
  while (!pending_.empty()) {
    Pending item = std::move(pending_.front());
    pending_.pop_front();
    const size_t lane = LaneOf(item.client_id);
    if (options_.shed_watermark != 0 && !item.requeued &&
        lane_depth_[lane] >= options_.shed_watermark) {
      ++stats_.shed;
      shed.push_back(Outgoing{item.seq, item.client_id, OverloadedResponse(lane).Serialize()});
      continue;
    }
    lanes[lane].push_back(std::move(item));
    ++lane_depth_[lane];
  }
  for (size_t depth : lane_depth_) {
    stats_.max_lane_depth = std::max<uint64_t>(stats_.max_lane_depth, depth);
  }

  // Chunk each lane's queue into dispatch-ready batches. Pre-chunking is
  // what makes stealing whole-batch and cheap: the plan reassigns vectors,
  // never splits one.
  std::vector<std::deque<std::vector<Pending>>> plan(lane_count);
  for (size_t lane = 0; lane < lane_count; ++lane) {
    std::deque<Pending>& queue = lanes[lane];
    while (!queue.empty()) {
      const size_t count = std::min(batch_limit, queue.size());
      std::vector<Pending> batch;
      batch.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        batch.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      plan[lane].push_back(std::move(batch));
    }
  }

  // Steal plan, computed single-threaded before any wakeup so it is a pure
  // function of the partition: repeatedly move the *last* batch of the most
  // backlogged lane (ties: lowest id) to the emptiest originally-idle lane
  // (ties: lowest id), until no move would still leave the victim ahead.
  // Only this pump's idle lanes ever receive stolen work — a busy lane's own
  // backlog is its sticky clients' order, and runs untouched, in order.
  if (options_.steal && lane_count > 1) {
    std::vector<size_t> idle;
    for (size_t lane = 0; lane < lane_count; ++lane) {
      if (plan[lane].empty()) {
        idle.push_back(lane);
      }
    }
    while (!idle.empty()) {
      size_t victim = 0;
      for (size_t lane = 1; lane < lane_count; ++lane) {
        if (plan[lane].size() > plan[victim].size()) {
          victim = lane;
        }
      }
      size_t thief = idle.front();
      for (size_t lane : idle) {
        if (plan[lane].size() < plan[thief].size()) {
          thief = lane;
        }
      }
      if (plan[victim].size() <= plan[thief].size() + 1) {
        break;  // another move would just swap who is backlogged
      }
      plan[thief].push_back(std::move(plan[victim].back()));
      plan[victim].pop_back();
      ++stats_.stolen_batches;
    }
  }

  // Each active lane drains its planned batches on its persistent executor
  // thread against its own worker/shard — crash remainders re-queued as the
  // lane's next batch, so a crashing lane pays restart + re-batch latency
  // while the other lanes stream on. A lane thread writes only its own
  // LaneResult slot; the main thread reads the slots after the round — the
  // only other cross-thread state is the pool's atomic restart counter.
  struct LaneResult {
    std::vector<Outgoing> responses;  // serve order; crash errors included
    uint64_t rejected = 0;
    uint64_t failed = 0;
    uint64_t requeued = 0;
    uint64_t batches = 0;
    // A non-Fault exception that escaped the lane (a harness bug, not a
    // simulated crash): captured here and rethrown on the main thread, so
    // it stays as catchable as it was under single-threaded dispatch.
    std::exception_ptr error;
  };
  std::vector<LaneResult> results(lane_count);
  auto serve_lane = [&](size_t lane) {
    LaneResult& result = results[lane];
    try {
      std::deque<std::vector<Pending>>& queue = plan[lane];
      while (!queue.empty()) {
        std::vector<Pending> batch = std::move(queue.front());
        queue.pop_front();
        const size_t count = batch.size();
        std::vector<std::string> out(count);
        ++result.batches;
        BatchOutcome outcome = pool_.DispatchBatchOn(lane, count, [&](ServerApp& app, size_t i) {
          out[i] = ServeLine(app, batch[i].client_id, batch[i].line, result.rejected);
        });
        for (size_t i = 0; i < outcome.completed; ++i) {
          result.responses.push_back(
              Outgoing{batch[i].seq, batch[i].client_id, std::move(out[i])});
        }
        if (!outcome.crashed) {
          continue;
        }
        // The worker died at batch[completed]: that request is lost (its
        // client sees the failure), the rest of the batch re-queues onto
        // the replacement worker as this lane's next batch, marked exempt
        // from shedding — recovery work is never shed.
        ServerResponse failure;
        failure.status = 500;
        failure.error = "worker crashed: " + outcome.failure.detail;
        result.responses.push_back(Outgoing{batch[outcome.completed].seq,
                                            batch[outcome.completed].client_id,
                                            failure.Serialize()});
        ++result.failed;
        if (outcome.completed + 1 < count) {
          std::vector<Pending> remainder;
          remainder.reserve(count - outcome.completed - 1);
          for (size_t i = outcome.completed + 1; i < count; ++i) {
            batch[i].requeued = true;
            remainder.push_back(std::move(batch[i]));
            ++result.requeued;
          }
          queue.push_front(std::move(remainder));
        }
      }
    } catch (...) {
      result.error = std::current_exception();
    }
  };

  std::vector<size_t> active;
  for (size_t lane = 0; lane < lane_count; ++lane) {
    if (!plan[lane].empty()) {
      active.push_back(lane);
    }
  }
  if (active.size() == 1) {
    serve_lane(active.front());  // one lane: skip the wakeup round trip
  } else if (!active.empty()) {
    if (executor_ != nullptr) {
      executor_->RunRound(active, serve_lane);
    } else {
      // Legacy fork/join baseline: a fresh thread per active lane per pump.
      std::vector<std::thread> threads;
      threads.reserve(active.size());
      for (size_t lane : active) {
        threads.emplace_back(serve_lane, lane);
      }
      for (std::thread& t : threads) {
        t.join();
      }
    }
  }

  // Post-join, single-threaded: merge shed responses and every lane's
  // served responses, sort by submission seq, and write — original
  // submission order, independent of lane interleaving and stealing. Then
  // fold the per-lane accounting.
  std::vector<Outgoing> outgoing = std::move(shed);
  for (size_t lane : active) {
    for (Outgoing& out : results[lane].responses) {
      outgoing.push_back(std::move(out));
    }
    stats_.rejected += results[lane].rejected;
    stats_.failed += results[lane].failed;
    stats_.requeued += results[lane].requeued;
    stats_.batches += results[lane].batches;
  }
  std::sort(outgoing.begin(), outgoing.end(),
            [](const Outgoing& a, const Outgoing& b) { return a.seq < b.seq; });
  for (Outgoing& out : outgoing) {
    auto it = clients_.find(out.client_id);
    if (it != clients_.end()) {
      it->second->ServerSend(std::move(out.line));
    }
    ++stats_.served;
  }

  // A lane that threw left planned batches unserved; hand them back to
  // pending_ in submission order, shed-exempt (they were already accepted),
  // so a caller that catches the rethrow below and pumps again loses
  // nothing. A clean round leaves every plan empty.
  std::vector<Pending> leftover;
  for (std::deque<std::vector<Pending>>& queue : plan) {
    for (std::vector<Pending>& batch : queue) {
      for (Pending& item : batch) {
        item.requeued = true;
        leftover.push_back(std::move(item));
      }
    }
  }
  std::sort(leftover.begin(), leftover.end(),
            [](const Pending& a, const Pending& b) { return a.seq < b.seq; });
  for (Pending& item : leftover) {
    pending_.push_back(std::move(item));
  }

  std::fill(lane_depth_.begin(), lane_depth_.end(), 0);
  for (size_t lane : active) {
    if (results[lane].error) {
      std::rethrow_exception(results[lane].error);
    }
  }
}

size_t Frontend::Pump() {
  uint64_t served_before = stats_.served;
  Ingest();
  ServePending();
  // A channel at EOF (closed and drained) can never produce another
  // request; dropping its affinity entry here keeps the map bounded by
  // *open* clients rather than clients ever seen.
  EvictClosedAffinities();
  return static_cast<size_t>(stats_.served - served_before);
}

bool Frontend::Idle() const {
  if (!pending_.empty()) {
    return false;
  }
  for (const auto& [client_id, channel] : clients_) {
    if (!channel->ServerAtEof()) {
      return false;
    }
  }
  return true;
}

size_t Frontend::Run() {
  size_t served = 0;
  while (!Idle()) {
    size_t this_pump = Pump();
    served += this_pump;
    if (this_pump == 0 && pending_.empty()) {
      // No progress and nothing queued: the remaining channels are open but
      // idle — no further input can arrive between pumps, so waiting would
      // spin forever.
      break;
    }
  }
  return served;
}

MemLog Frontend::MergedLog() {
  // Size the merged detail ring to hold every shard's ring, so merging
  // cannot silently drop records the shards still hold (aggregates are
  // exact either way).
  size_t capacity = 0;
  for (size_t index = 0; index < pool_.size(); ++index) {
    capacity += pool_.worker(index).memory().log().capacity();
  }
  MemLog merged(capacity);
  for (size_t index = 0; index < pool_.size(); ++index) {
    const Memory& memory = pool_.worker(index).memory();
    merged.Merge(memory.log());
    // Fast-path counters and boundless-store accounting live on the shard,
    // not in its log; fold them in here so the merged view carries the
    // pool's translation and OOB-storage profiles.
    merged.AddTranslationStats(memory.translation_hits(), memory.translation_misses());
    merged.AddBoundlessStats(memory.boundless().stats());
  }
  // Scheduler counters live on the frontend, not any shard; fold them in so
  // Summary() tells the overload/stealing story alongside the error story.
  merged.AddSchedulerStats(stats_.shed, stats_.stolen_batches, stats_.max_lane_depth);
  return merged;
}

}  // namespace fob
