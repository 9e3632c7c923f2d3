// Open-loop serving benchmark: Midnight Commander archive-browsing traffic,
// with and without attacks, pushed through a real Frontend (2 workers, 4
// client LineChannels, every other Frontend::Options field at its default)
// from a single process.
//
// The process is both the clients and the Frontend's pump thread: it sends
// each request into its client's channel when the request is due, pumps,
// and reads the responses back. Latency is measured from each request's
// *intended* send time, so a slow pump is charged to every request that
// came due while it ran. See servebench/README.md for the workloads, every
// metric, and the known defects the numbers expose.
//
// Usage: serve_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
// The last stdout line is the result object; exit status 1 means the
// correctness check failed (a malformed response, a response count that
// differs from the number sent, or a wrong listing on an acceptable answer).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/archive/gzip.h"
#include "src/archive/tar.h"
#include "src/harness/workloads.h"
#include "src/net/frontend.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace fob {
namespace {

constexpr size_t kWorkers = 2;
constexpr uint32_t kClients = 4;
constexpr uint64_t kMcTreeBytes = 64 << 10;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// splitmix64: the only randomness in the benchmark, seeded from --seed, so
// the same seed always yields the same arrival times and request lines.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // Exponentially distributed with the given mean (inverse transform on a
  // uniform in (0, 1]).
  double Exp(double mean) {
    const double unit = (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
    return -std::log(unit) * mean;
  }

 private:
  uint64_t state_;
};

// Deals request kinds from shuffled decks that hold each kind in the
// workload's proportion, so every stretch of a session has the workload's
// mix, not only its average: the share of expensive requests in a pass no
// longer swings with the seed.
class Deck {
 public:
  explicit Deck(std::vector<int> cards) : cards_(std::move(cards)), next_(cards_.size()) {}
  int Draw(Rng& rng) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Below(i + 1)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int> cards_;
  size_t next_;
};

// Nearest-rank percentile; `values` need not be sorted.
double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(fraction * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();  // spare the sibling hardware thread
#endif
}

// Keeps the CPUs the generator does not spin on busy at the lowest
// scheduling priority for the whole run. On a virtual machine an idle vCPU
// halts and the host may hand its physical CPU to a neighbour; waking a
// parked lane thread there then costs host scheduling latency that swings
// with the neighbours' load, run to run. A SCHED_IDLE spinner keeps the
// vCPU running and gives way to a lane thread at once -- the idle=poll
// setting of a dedicated latency benchmark host. A spinner that cannot drop
// to SCHED_IDLE exits rather than compete with the server.
class KeepAlive {
 public:
  KeepAlive() {
    const unsigned cpus = std::thread::hardware_concurrency();
    for (unsigned i = 1; i < cpus; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
          CpuRelax();
        }
      });
    }
  }
  ~KeepAlive() {
    stop_.store(true);
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }
  KeepAlive(const KeepAlive&) = delete;
  KeepAlive& operator=(const KeepAlive&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---- Requests and what a correct answer looks like ------------------------

// What the verifier knows about a request's correct response. Only checked
// when the server called the response acceptable; an unacceptable answer
// is a failure, counted, never a correctness error.
// A browse answer carries one listing row per archive entry, in archive
// order, each starting with the entry's kind and name (a file row gives its
// size too); the rest of a symlink row is its target as MC resolved it.
struct Check {
  const std::vector<std::string>* row_prefixes = nullptr;
};

std::vector<std::string> ListingPrefixes(const std::string& tgz) {
  std::vector<std::string> prefixes;
  const std::vector<TarEntry> entries = *ReadTar(*GunzipStore(tgz));
  for (const TarEntry& entry : entries) {
    switch (entry.type) {
      case TarEntryType::kDirectory:
        prefixes.push_back("dir   " + entry.name);
        break;
      case TarEntryType::kFile:
        prefixes.push_back("file  " + entry.name + " (" + std::to_string(entry.data.size()) +
                           " bytes)");
        break;
      case TarEntryType::kSymlink:
        prefixes.push_back("link  " + entry.name + " -> ");
        break;
    }
  }
  return prefixes;
}

struct Planned {
  uint32_t client = 0;  // 0-based; the wire client id is client + 1
  RequestTag tag = RequestTag::kLegit;
  Check check;
  std::string line;  // serialized request; moved into the channel at send time
};

Planned Plan(uint32_t client, ServerRequest request, Check check = {}) {
  Planned planned;
  planned.client = client;
  planned.tag = request.tag;
  planned.check = std::move(check);
  request.client_id = client + 1;
  planned.line = request.Serialize();
  return planned;
}

// Reference data the sessions and the verifier share, built once.
struct References {
  std::string mc_attack_tgz = MakeMcAttackTgz();
  std::string mc_benign_tgz = MakeMcBenignTgz();
  std::vector<std::string> mc_attack_rows = ListingPrefixes(mc_attack_tgz);
  std::vector<std::string> mc_benign_rows = ListingPrefixes(mc_benign_tgz);
};

const References& Refs() {
  static const References refs;
  return refs;
}

// A session generator appends `count` requests of one client. Each client
// is its own session: no request depends on another client's requests
// having run first, in any order.
using SessionFn = std::function<void(uint32_t client, size_t count, Rng& rng,
                                     std::vector<Planned>& out)>;

// MC's timed traffic is archive browsing only: each browse carries its
// .tgz, so any worker can answer it. Requests that need per-client state on
// the worker (copy/delete of a home tree) fail whenever the steal plan moves
// them to the other shard, and how often that happens depends on timing, so
// they would make the failure count differ between identical runs. They run
// in McSplitProbe instead, where the failures are deterministic.
void McSession(Deck deck, uint32_t client, size_t count, Rng& rng, std::vector<Planned>& out) {
  const References& refs = Refs();
  for (size_t k = 0; k < count; ++k) {
    const bool attack = deck.Draw(rng) == 1;
    const std::vector<std::string>& rows = attack ? refs.mc_attack_rows : refs.mc_benign_rows;
    ServerRequest browse =
        MakeRequest(attack ? RequestTag::kAttack : RequestTag::kLegit, "browse");
    browse.payload = attack ? refs.mc_attack_tgz : refs.mc_benign_tgz;
    browse.expect = std::to_string(rows.size());
    out.push_back(Plan(client, std::move(browse), Check{&rows}));
  }
}

// 1 attack browse in 4; the rest browse the benign archive.
void McAttackSession(uint32_t client, size_t count, Rng& rng, std::vector<Planned>& out) {
  McSession(Deck({1, 0, 0, 0}), client, count, rng, out);
}

// Benign browses only.
void McBrowseSession(uint32_t client, size_t count, Rng& rng, std::vector<Planned>& out) {
  McSession(Deck({0}), client, count, rng, out);  // a deck with no attack card
}

// One client's stateful MC session: build a home tree, then copy it and
// delete the copy, over and over. Queued whole on an idle Frontend, it fills
// the client's lane while the other lane is idle, so the steal plan moves
// its last batches to the other shard, which has no tree.
std::vector<Planned> McSplitProbe(uint32_t client, size_t count) {
  std::vector<Planned> out;
  const std::string home = "/home/c" + std::to_string(client);
  out.push_back(Plan(client, MakeRequest(RequestTag::kMaintenance, "mktree", home + "/tree",
                                         std::to_string(kMcTreeBytes))));
  for (size_t k = 1; k < count; ++k) {
    const std::string copy = home + "/copy" + std::to_string((k + 1) / 2);
    out.push_back(k % 2 == 1
                      ? Plan(client, MakeRequest(RequestTag::kLegit, "copy", home + "/tree", copy))
                      : Plan(client, MakeRequest(RequestTag::kLegit, "delete", copy)));
  }
  return out;
}

// ---- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  Server server;
  ServerSetup setup;
  double light_rps;
  double heavy_rps;
  double limit_ms;             // p90 latency limit for capacity_rps
  std::vector<double> ladder;  // ascending offered rates for capacity_rps
  size_t sat_requests;         // request set queued before the first pump
  SessionFn session;
};

std::vector<double> Ladder(double low, double high, double step) {
  std::vector<double> rates;
  for (double rate = low; rate <= high * 1.0001; rate *= step) {
    rates.push_back(std::round(rate));
  }
  return rates;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"mc-attack", Server::kMc, ServerSetup{.mc_config_blank_lines = false}, 100, 400, 50.0,
       Ladder(250, 32000, 1.08), 1000, McAttackSession},
      {"mc-browse", Server::kMc, ServerSetup{.mc_config_blank_lines = false}, 100, 400, 50.0,
       Ladder(250, 32000, 1.08), 2000, McBrowseSession},
  };
  return workloads;
}

// ---- Tracing (outside the program: a factory decorator + pump timing) ------

struct HandleSpan {
  uint64_t pump = 0;  // parent net.pump span
  uint32_t worker = 0;
  uint64_t client = 0;
  RequestTag tag = RequestTag::kLegit;
  int64_t start = 0;
  int64_t end = 0;
};

class Tracer {
 public:
  // Pump span id the lanes are serving; written by the pump thread before
  // Pump(), read by lane threads inside it.
  std::atomic<uint64_t> current_pump{0};

  std::shared_ptr<std::vector<HandleSpan>> NewBuffer(double start_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_shared<std::vector<HandleSpan>>());
    worker_start_ms_.push_back(start_ms);
    return buffers_.back();
  }

  // Call between pumps only (no lane thread running).
  std::vector<HandleSpan> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<HandleSpan> all;
    for (auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
      buffer->clear();
    }
    return all;
  }

  std::vector<double> worker_start_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return worker_start_ms_;
  }

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<std::vector<HandleSpan>>> buffers_;
  std::vector<double> worker_start_ms_;
};

// Timing decorator around a worker's ServerApp: each Handle becomes an
// apps.handle span. Each instance is driven by one lane thread at a time
// and appends only to its own buffer.
class TimedApp : public ServerApp {
 public:
  TimedApp(std::unique_ptr<ServerApp> inner, Tracer& tracer, double start_ms)
      : inner_(std::move(inner)), tracer_(tracer), spans_(tracer.NewBuffer(start_ms)) {}

  void BeginSession(uint64_t client_id) override { inner_->BeginSession(client_id); }
  void EndSession(uint64_t client_id) override { inner_->EndSession(client_id); }
  Memory& memory() override { return inner_->memory(); }

  ServerResponse Handle(const ServerRequest& request) override {
    HandleSpan span;
    span.pump = tracer_.current_pump.load(std::memory_order_relaxed);
    span.worker = inner_->memory().shard_id();
    span.client = request.client_id;
    span.tag = request.tag;
    span.start = NowNs();
    ServerResponse response = inner_->Handle(request);
    span.end = NowNs();
    spans_->push_back(span);
    return response;
  }

 private:
  std::unique_ptr<ServerApp> inner_;
  Tracer& tracer_;
  std::shared_ptr<std::vector<HandleSpan>> spans_;
};

Frontend::Factory MakeFactory(const Workload& workload, Tracer* tracer) {
  Frontend::Factory base =
      MakeServerAppFactory(workload.server, AccessPolicy::kFailureOblivious, workload.setup);
  if (tracer == nullptr) {
    return base;
  }
  return [base, tracer]() -> std::unique_ptr<ServerApp> {
    const int64_t start = NowNs();
    std::unique_ptr<ServerApp> inner = base();
    return std::make_unique<TimedApp>(std::move(inner), *tracer, Ms(NowNs() - start));
  };
}

// ---- Response verification --------------------------------------------------

// Full decodes never run on the timed path: the pump thread only parses the
// fixed "RSP\tok\tacceptable\tstatus\t" prefix and keeps the line, and
// Drain() decodes and checks every kept line between phases. A full decode
// of a response would otherwise stall the generator, and a
// verifier thread decoding beside the pump would compete with the lanes for
// CPU and memory bandwidth.
class Verifier {
 public:
  struct Item {
    const Check* check = nullptr;
    bool ok = false;
    bool acceptable = false;
    int status = 0;
    std::string line;
  };

  void Submit(Item item) { queue_.push_back(std::move(item)); }

  // Checks every submitted item (the Checks they point at may be freed
  // after this returns).
  void Drain() {
    for (const Item& item : queue_) {
      std::string error = Verify(item);
      if (!error.empty() && errors_++ == 0) {
        first_error_ = std::move(error);
      }
    }
    verified_ += queue_.size();
    queue_.clear();
  }

  uint64_t errors() const { return errors_; }
  const std::string& first_error() const { return first_error_; }
  uint64_t verified() const { return verified_; }

 private:
  static std::string Verify(const Item& item) {
    std::optional<ServerResponse> response = ServerResponse::Deserialize(item.line);
    if (!response) {
      return "malformed response line";
    }
    if (response->ok != item.ok || response->acceptable != item.acceptable ||
        response->status != item.status) {
      return "response prefix disagrees with its full decode";
    }
    if (!response->acceptable) {
      return "";
    }
    const std::vector<std::string>* prefixes = item.check->row_prefixes;
    if (prefixes == nullptr) {
      return "";
    }
    if (response->lines.size() != prefixes->size()) {
      return "wrong row count " + std::to_string(response->lines.size());
    }
    for (size_t i = 0; i < prefixes->size(); ++i) {
      if (response->lines[i].compare(0, (*prefixes)[i].size(), (*prefixes)[i]) != 0) {
        return "wrong listing row \"" + response->lines[i] + "\"";
      }
    }
    return "";
  }

  std::vector<Item> queue_;
  uint64_t verified_ = 0;
  uint64_t errors_ = 0;
  std::string first_error_;
};

// Parses the fixed response prefix "RSP\t<ok>\t<acceptable>\t<status>\t".
bool ParsePrefix(const std::string& line, Verifier::Item& item) {
  if (line.size() < 10 || line.compare(0, 4, "RSP\t") != 0 || line[5] != '\t' ||
      line[7] != '\t') {
    return false;
  }
  item.ok = line[4] == '1';
  item.acceptable = line[6] == '1';
  size_t pos = 8;
  bool negative = pos < line.size() && line[pos] == '-';
  if (negative) {
    ++pos;
  }
  int status = 0;
  size_t digits = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9' && digits < 9) {
    status = status * 10 + (line[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0 || pos >= line.size() || line[pos] != '\t') {
    return false;
  }
  item.status = negative ? -status : status;
  return true;
}

// ---- One phase: a fresh Frontend serving one planned request set -------------

struct PhasePlan {
  double rate = 0;                // offered req/s; 0 = saturation (all queued at t0)
  double seconds = 0;             // schedule length
  std::vector<int64_t> due;       // per request, ns after t0
  std::vector<Planned> requests;  // arrival order
};

// `rate` 0 plans a saturation pass of `sat_requests` requests.
PhasePlan MakePhasePlan(const Workload& workload, uint64_t seed, double rate, double seconds,
                        size_t sat_requests) {
  Rng rng(seed);
  PhasePlan plan;
  plan.rate = rate;
  plan.seconds = seconds;
  std::vector<uint32_t> who;
  if (rate > 0) {
    const double horizon = seconds * 1e9;
    double t = rng.Exp(1e9 / rate);
    while (t < horizon) {
      plan.due.push_back(static_cast<int64_t>(t));
      who.push_back(static_cast<uint32_t>(rng.Below(kClients)));
      t += rng.Exp(1e9 / rate);
    }
  } else {
    for (size_t i = 0; i < sat_requests; ++i) {
      who.push_back(static_cast<uint32_t>(rng.Below(kClients)));
    }
    plan.due.assign(who.size(), 0);
  }
  // Each client's session is generated whole, then dealt out in arrival
  // order, so a client's requests reach the server in session order.
  std::vector<std::vector<Planned>> sessions(kClients);
  std::vector<size_t> next(kClients, 0);
  for (uint32_t client = 0; client < kClients; ++client) {
    const size_t count = static_cast<size_t>(std::count(who.begin(), who.end(), client));
    workload.session(client, count, rng, sessions[client]);
  }
  plan.requests.reserve(who.size());
  for (uint32_t client : who) {
    plan.requests.push_back(std::move(sessions[client][next[client]++]));
  }
  return plan;
}

struct Counters {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t errors = 0;
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t log_dropped = 0;
  std::set<SiteId> sites;
  Frontend::Stats stats;
  uint64_t restarts = 0;
};

Counters ReadCounters(Frontend& frontend) {
  Counters counters;
  for (size_t i = 0; i < frontend.pool().size(); ++i) {
    const Memory& memory = frontend.pool().worker(i).memory();
    counters.accesses += memory.access_count();
    counters.hits += memory.translation_hits();
    counters.misses += memory.translation_misses();
    counters.errors += memory.log().total_errors();
    counters.read_errors += memory.log().read_errors();
    counters.write_errors += memory.log().write_errors();
    counters.log_dropped += memory.log().dropped();
    for (const auto& [site, stat] : memory.log().sites()) {
      counters.sites.insert(site);
    }
  }
  counters.stats = frontend.stats();
  counters.restarts = frontend.restarts();
  return counters;
}

struct PumpSpan {
  uint64_t id = 0;
  int64_t start = 0;
  int64_t end = 0;
  size_t served = 0;
};

struct PhaseResult {
  std::string name;
  double seconds = 0;
  std::vector<int64_t> due;   // absolute ns
  std::vector<int64_t> sent;  // absolute ns
  std::vector<int64_t> done;  // absolute ns
  std::vector<uint64_t> pump_of;
  std::vector<char> good;  // acceptable, not 500/503, prefix well formed
  std::vector<RequestTag> tags;
  std::vector<uint32_t> clients;
  std::vector<PumpSpan> pumps;
  std::vector<HandleSpan> handles;
  Counters before;
  Counters after;
  int64_t t0 = 0;
  int64_t last_done = 0;
  uint64_t req_bytes = 0;
  uint64_t resp_bytes = 0;
  uint64_t missing = 0;    // requests never answered (a correctness error)
  uint64_t malformed = 0;  // responses whose prefix did not parse

  size_t attempted() const { return good.size(); }
  size_t failed() const { return static_cast<size_t>(std::count(good.begin(), good.end(), 0)); }
  std::vector<double> LatencyMs() const {
    std::vector<double> out(done.size());
    for (size_t i = 0; i < done.size(); ++i) {
      out[i] = Ms(done[i] - due[i]);
    }
    return out;
  }
  // Served requests per second over the phase: the schedule length, or the
  // time to the last response if the backlog outlived the schedule.
  double Achieved() const {
    const double span = std::max(seconds, static_cast<double>(last_done - t0) / 1e9);
    return static_cast<double>(attempted()) / span;
  }
};

// A Frontend as the workload serves it: 2 workers under failure-oblivious
// computing, every other option at its default.
std::unique_ptr<Frontend> StartFrontend(const Workload& workload, Tracer* tracer) {
  return std::make_unique<Frontend>(MakeFactory(workload, tracer),
                                    Frontend::Options{.workers = kWorkers});
}

class Phase {
 public:
  Phase(const Workload& workload, Tracer* tracer, Verifier& verifier)
      : frontend_(StartFrontend(workload, tracer)), tracer_(tracer), verifier_(verifier) {
    for (uint32_t client = 0; client < kClients; ++client) {
      channels_.push_back(&frontend_->Connect(client + 1));
    }
  }

  PhaseResult Run(PhasePlan& plan, const std::string& name) {
    PhaseResult result;
    result.name = name;
    result.seconds = plan.seconds;
    const size_t n = plan.requests.size();
    result.due.resize(n);
    result.sent.resize(n, 0);
    result.done.resize(n, 0);
    result.pump_of.resize(n, 0);
    result.good.resize(n, 0);
    result.tags.resize(n);
    result.clients.resize(n);
    for (size_t i = 0; i < n; ++i) {
      result.tags[i] = plan.requests[i].tag;
      result.clients[i] = plan.requests[i].client;
      result.req_bytes += plan.requests[i].line.size();
    }
    result.before = ReadCounters(*frontend_);
    plan_ = &plan;
    result_ = &result;

    size_t next = 0;
    if (plan.rate <= 0) {
      // Saturation: the whole request set is queued before the first pump.
      for (; next < n; ++next) {
        Send(next, 0);
      }
      result.t0 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        result.due[i] = result.sent[i] = result.t0;
      }
    } else {
      result.t0 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        result.due[i] = result.t0 + plan.due[i];
      }
    }
    while (next < n || outstanding_ > 0) {
      const int64_t now = NowNs();
      while (next < n && result.due[next] <= now) {
        Send(next, now);
        ++next;
      }
      if (unpumped_ > 0) {
        PumpOnce();
        continue;
      }
      if (outstanding_ > 0) {
        break;  // pumped everything, yet answers are missing
      }
      if (next < n) {
        WaitUntil(result.due[next]);
      }
    }
    result.missing = outstanding_;
    result.after = ReadCounters(*frontend_);
    if (tracer_ != nullptr) {
      result.handles = tracer_->TakeSpans();
    }
    verifier_.Drain();  // plan (and its Checks) may be freed after this
    plan_ = nullptr;
    result_ = nullptr;
    return result;
  }

 private:
  void Send(size_t index, int64_t now) {
    Planned& planned = plan_->requests[index];
    result_->sent[index] = now;
    outstanding_ids_[planned.client].push_back(index);
    channels_[planned.client]->ClientSend(std::move(planned.line));
    ++outstanding_;
    ++unpumped_;
  }

  void PumpOnce() {
    PumpSpan span;
    span.id = ++pump_id_;
    if (tracer_ != nullptr) {
      tracer_->current_pump.store(span.id, std::memory_order_relaxed);
    }
    unpumped_ = 0;
    span.start = NowNs();
    span.served = frontend_->Pump();
    span.end = NowNs();
    if (tracer_ != nullptr) {
      result_->pumps.push_back(span);
    }
    Collect(span);
  }

  void Collect(const PumpSpan& span) {
    for (uint32_t client = 0; client < kClients; ++client) {
      std::deque<size_t>& ids = outstanding_ids_[client];
      while (true) {
        LineChannel::Recv recv = channels_[client]->ClientReceiveLine();
        if (!recv.has_line()) {
          break;
        }
        if (ids.empty()) {
          ++result_->malformed;  // an answer nobody asked for
          continue;
        }
        const size_t index = ids.front();
        ids.pop_front();
        --outstanding_;
        result_->done[index] = span.end;
        result_->pump_of[index] = span.id;
        result_->last_done = span.end;
        result_->resp_bytes += recv.line.size();
        Verifier::Item item;
        item.check = &plan_->requests[index].check;
        if (!ParsePrefix(recv.line, item)) {
          ++result_->malformed;
          continue;
        }
        result_->good[index] = item.acceptable && item.status != 500 &&
                               item.status != Frontend::kOverloadedStatus;
        item.line = std::move(recv.line);
        verifier_.Submit(std::move(item));
      }
    }
  }

  // Spins, never sleeps: on a virtual machine a sleeping vCPU can be
  // descheduled by the host, and waking it again puts milliseconds of lag on
  // the send times.
  static void WaitUntil(int64_t deadline) {
    while (NowNs() < deadline) {
      CpuRelax();
    }
  }

  std::unique_ptr<Frontend> frontend_;
  Tracer* tracer_;
  Verifier& verifier_;
  std::vector<LineChannel*> channels_;
  std::deque<size_t> outstanding_ids_[kClients];
  PhasePlan* plan_ = nullptr;
  PhaseResult* result_ = nullptr;
  size_t outstanding_ = 0;
  size_t unpumped_ = 0;
  uint64_t pump_id_ = 0;
};

// ---- The run --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (!have_workload || argc % 2 != 1 || !(args.seconds > 0)) {
    return std::nullopt;
  }
  return args;
}

// Every end-to-end number pools or takes the median over rounds, and each
// round runs a bit of everything (set-up samples, a saturation pass, a light
// and a heavy segment), so a slow stretch of a shared machine lands in a
// few rounds and is outvoted instead of skewing one metric. The traced run
// adds two capacity probes to each round.
constexpr double kSegmentS = 0.5;  // light / heavy segment length
constexpr double kProbeS = 0.5;    // capacity probe length
constexpr size_t kMinRounds = 3;
// Four batches of Frontend::Options::batch requests on one lane.
constexpr size_t kSplitProbeRequests = 32;
constexpr size_t kWarmRequests = 64;
// The traced run keeps every span until it ends; once this many requests
// are kept, its remaining rounds only add saturation samples for
// client.trace_overhead_ratio.
constexpr size_t kTraceKeep = 200000;

class Runner {
 public:
  Runner(const Workload& workload, const Args& args) : workload_(workload), args_(args) {}

  // One phase on a fresh Frontend. A fresh MC worker answers its first
  // browses several times faster than one that has served a while (25-50
  // us instead of about 230 us for a benign browse), so a phase of a few
  // dozen requests would be timed partly on fresh workers, in a share that
  // moves the median. Each phase therefore first serves kWarmRequests untimed,
  // queued at once, and the timed requests meet warmed workers, as a
  // long-lived server's clients do. The warm-up answers are checked and
  // counted like any others.
  PhaseResult RunPhase(const std::string& name, double rate, double seconds, bool traced) {
    const uint64_t seed = args_.seed * 1000003 + ++phase_seq_;
    Phase phase(workload_, traced ? &tracer_ : nullptr, verifier_);
    PhasePlan warm = MakePhasePlan(workload_, ~seed, 0, 0, kWarmRequests);
    Count(phase.Run(warm, "warm-up"));
    PhasePlan plan = MakePhasePlan(workload_, seed, rate, seconds, workload_.sat_requests);
    PhaseResult result = phase.Run(plan, name);
    Count(result);
    return result;
  }

  // One saturation pass: the workload's request set queued on a fresh,
  // warmed Frontend before the first pump; returns requests served per
  // second.
  double SatPass(bool traced, std::vector<PhaseResult>* keep = nullptr) {
    PhaseResult pass = RunPhase("sat", 0, 0, traced);
    const double rps = static_cast<double>(pass.attempted()) /
                       (static_cast<double>(pass.last_done - pass.t0) / 1e9);
    if (keep != nullptr) {
      keep->push_back(std::move(pass));
    }
    return rps;
  }

  // The split-session probe: one client's session of kSplitProbeRequests
  // requests queued whole on a fresh, idle Frontend, so one pump serves it
  // and its steal plan is the same on every run. Returns how many of its
  // requests were answered unacceptably. The probe measures a known defect
  // (servebench/README.md); its answers are checked like any other, but it
  // is not part of the workload's traffic and stays out of attempted/failed.
  uint64_t SplitProbe() {
    PhasePlan plan;
    plan.requests = McSplitProbe(0, kSplitProbeRequests);
    plan.due.assign(plan.requests.size(), 0);
    Phase phase(workload_, nullptr, verifier_);
    PhaseResult result = phase.Run(plan, "split-probe");
    missing_ += result.missing;
    malformed_ += result.malformed;
    return result.failed();
  }

  // Frontend + worker construction + client connect, in seconds.
  double SetupSample(bool traced) {
    const int64_t start = NowNs();
    std::unique_ptr<Frontend> frontend = StartFrontend(workload_, traced ? &tracer_ : nullptr);
    for (uint32_t client = 0; client < kClients; ++client) {
      frontend->Connect(client + 1);
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  // A capacity probe passes when p90 latency (failures counted as misses)
  // is within the workload's limit and the phase served >= 98% of the
  // offered rate, i.e. the backlog drained within 2% of the schedule.
  bool Probe(double rate) {
    PhaseResult probe = RunPhase("capacity", rate, kProbeS, false);
    const std::vector<double> latency = probe.LatencyMs();
    size_t within = 0;
    for (size_t i = 0; i < latency.size(); ++i) {
      within += (probe.good[i] && latency[i] <= workload_.limit_ms) ? 1 : 0;
    }
    const double offered = static_cast<double>(latency.size()) / probe.seconds;
    return within >= 0.9 * static_cast<double>(latency.size()) &&
           probe.Achieved() >= 0.98 * offered;
  }

  Tracer& tracer() { return tracer_; }
  Verifier& verifier() { return verifier_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t correctness_errors() { return missing_ + malformed_ + verifier_.errors(); }

 private:
  void Count(const PhaseResult& result) {
    missing_ += result.missing;
    malformed_ += result.malformed;
    attempted_ += result.attempted();
    failed_ += result.failed();
  }

  const Workload& workload_;
  const Args& args_;
  Tracer tracer_;
  Verifier verifier_;
  uint64_t phase_seq_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t missing_ = 0;
  uint64_t malformed_ = 0;
};

// capacity_rps: an up-down staircase over the workload's fixed ladder, two
// probes per round. A pass moves one rung up and a failure one rung down
// (four rungs until the first reversal, so the search reaches the knee
// within a few rounds from any start); the estimate is the geometric mean
// of the rungs probed from the first reversal on, i.e. the ladder rate that
// passes about half the time. A single pass/fail search would be steered by
// whichever probe a machine hiccup happened to hit.
class Staircase {
 public:
  Staircase(const std::vector<double>& ladder, double start_rate) : ladder_(ladder) {
    while (index_ + 1 < ladder_.size() && ladder_[index_ + 1] <= start_rate) {
      ++index_;
    }
  }

  double rate() const { return ladder_[index_]; }

  void Record(bool pass) {
    log_ << (log_.tellp() > 0 ? " " : "") << rate() << (pass ? ":pass" : ":fail");
    if (last_.has_value() && *last_ != pass) {
      reversed_ = true;
    }
    last_ = pass;
    if (reversed_) {
      settled_.push_back(rate());
    }
    const size_t step = reversed_ ? 1 : 4;
    if (pass) {
      index_ = std::min(index_ + step, ladder_.size() - 1);
    } else {
      index_ = index_ >= step ? index_ - step : 0;
    }
  }

  double Estimate() const {
    const std::vector<double>& rates = settled_.empty() ? std::vector<double>{rate()} : settled_;
    double log_sum = 0;
    for (double rate : rates) {
      log_sum += std::log(rate);
    }
    return std::exp(log_sum / static_cast<double>(rates.size()));
  }

  std::string log() const { return log_.str(); }

 private:
  const std::vector<double>& ladder_;
  size_t index_ = 0;
  std::optional<bool> last_;
  bool reversed_ = false;
  std::vector<double> settled_;
  std::ostringstream log_;
};

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    Key(key);
    os_ << std::setprecision(12) << value;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    Key(key);
    os_ << '"' << value << '"';
    return *this;
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    Key(key);
    os_ << json;
    return *this;
  }
  JsonObject& Metric(const std::string& key, double value, const std::string& unit) {
    Key(key);
    os_ << "{\"value\": " << std::setprecision(12) << value << ", \"unit\": \"" << unit << "\"}";
    return *this;
  }
  std::string str() const { return "{" + os_.str() + "}"; }

 private:
  void Key(const std::string& key) {
    if (!first_) {
      os_ << ", ";
    }
    first_ = false;
    os_ << '"' << key << "\": ";
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string JsonList(const std::vector<double>& values) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    os << (i ? ", " : "") << values[i];
  }
  os << ']';
  return os.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- Per-layer metrics from the traced phases -----------------------------------

// `phases` is every traced phase; pump, ingest and lag metrics come from the
// light and heavy segments only (a saturation pass is one huge pump).
void AddLayerMetrics(JsonObject& metrics, const std::vector<const PhaseResult*>& phases,
                     const std::vector<const PhaseResult*>& light_phases,
                     const std::vector<const PhaseResult*>& heavy_phases, Tracer& tracer,
                     double overhead_ratio) {
  std::vector<const PhaseResult*> rate_phases = light_phases;
  rate_phases.insert(rate_phases.end(), heavy_phases.begin(), heavy_phases.end());
  auto pooled_latency = [](const std::vector<const PhaseResult*>& list) {
    std::vector<double> all;
    for (const PhaseResult* phase : list) {
      const std::vector<double> latency = phase->LatencyMs();
      all.insert(all.end(), latency.begin(), latency.end());
    }
    return all;
  };
  const std::vector<double> light_ms = pooled_latency(light_phases);
  const std::vector<double> heavy_ms = pooled_latency(heavy_phases);
  double requests = 0;
  uint64_t accesses = 0, hits = 0, misses = 0, errors = 0, read_errors = 0, write_errors = 0,
           dropped = 0, stolen = 0, max_depth = 0, shed = 0, restarts = 0, rejected = 0,
           unacceptable = 0, req_bytes = 0, resp_bytes = 0;
  std::set<SiteId> sites;
  double handle_ns = 0, pump_ns = 0, busiest_ns = 0, mean_lane_ns = 0, wall_ns = 0;
  std::vector<double> legit_us, attack_us;
  for (const PhaseResult* phase : phases) {
    const Counters& a = phase->before;
    const Counters& b = phase->after;
    requests += static_cast<double>(phase->attempted());
    accesses += b.accesses - a.accesses;
    hits += b.hits - a.hits;
    misses += b.misses - a.misses;
    errors += b.errors - a.errors;
    read_errors += b.read_errors - a.read_errors;
    write_errors += b.write_errors - a.write_errors;
    dropped += b.log_dropped - a.log_dropped;
    sites.insert(b.sites.begin(), b.sites.end());
    stolen += b.stats.stolen_batches - a.stats.stolen_batches;
    max_depth = std::max<uint64_t>(max_depth, b.stats.max_lane_depth);
    shed += b.stats.shed - a.stats.shed;
    rejected += b.stats.rejected - a.stats.rejected;
    restarts += b.restarts - a.restarts;
    unacceptable += phase->failed();
    req_bytes += phase->req_bytes;
    resp_bytes += phase->resp_bytes;
    // Per pump: the busiest lane's Handle time blocks the pump; the rest of
    // the pump's wall time is the Frontend's own serial path.
    std::vector<std::vector<double>> lane_ns(phase->pumps.size() + 1,
                                             std::vector<double>(kWorkers, 0.0));
    std::vector<size_t> pump_index(phase->pumps.empty() ? 1 : phase->pumps.back().id + 1, 0);
    for (size_t i = 0; i < phase->pumps.size(); ++i) {
      pump_index[phase->pumps[i].id] = i;
      pump_ns += static_cast<double>(phase->pumps[i].end - phase->pumps[i].start);
    }
    for (const HandleSpan& span : phase->handles) {
      const double ns = static_cast<double>(span.end - span.start);
      handle_ns += ns;
      (span.tag == RequestTag::kAttack ? attack_us : legit_us).push_back(ns / 1e3);
      if (span.pump < pump_index.size() && span.worker < kWorkers) {
        lane_ns[pump_index[span.pump]][span.worker] += ns;
      }
    }
    for (size_t i = 0; i < phase->pumps.size(); ++i) {
      const std::vector<double>& lanes = lane_ns[i];
      busiest_ns += *std::max_element(lanes.begin(), lanes.end());
      double sum = 0;
      for (double ns : lanes) {
        sum += ns;
      }
      mean_lane_ns += sum / kWorkers;
    }
    wall_ns += static_cast<double>(phase->last_done - phase->t0);
  }
  const double per_req = requests > 0 ? 1.0 / requests : 0.0;
  const double resolved = static_cast<double>(hits + misses);

  std::vector<double> pump_ms, reqs_per_pump, ingest_ms, lag_ms;
  for (const PhaseResult* phase : rate_phases) {
    std::vector<int64_t> start_of(phase->pumps.empty() ? 1 : phase->pumps.back().id + 1, 0);
    for (const PumpSpan& pump : phase->pumps) {
      start_of[pump.id] = pump.start;
      if (pump.served > 0) {
        pump_ms.push_back(Ms(pump.end - pump.start));
        reqs_per_pump.push_back(static_cast<double>(pump.served));
      }
    }
    for (size_t i = 0; i < phase->attempted(); ++i) {
      lag_ms.push_back(Ms(phase->sent[i] - phase->due[i]));
      if (phase->pump_of[i] < start_of.size()) {
        ingest_ms.push_back(Ms(start_of[phase->pump_of[i]] - phase->sent[i]));
      }
    }
  }
  double mean_reqs_per_pump = 0;
  for (double count : reqs_per_pump) {
    mean_reqs_per_pump += count;
  }
  mean_reqs_per_pump = reqs_per_pump.empty() ? 0 : mean_reqs_per_pump / reqs_per_pump.size();

  metrics.Metric("softmem.fast_hit_ratio", resolved > 0 ? hits / resolved : 0.0, "ratio")
      .Metric("softmem.slow_lookups_per_req", misses * per_req, "count/req")
      .Metric("softmem.unclassified_per_req",
              (static_cast<double>(accesses) - resolved) * per_req, "count/req")
      .Metric("runtime.ns_per_access", accesses > 0 ? handle_ns / accesses : 0.0, "ns")
      .Metric("runtime.accesses_per_req", accesses * per_req, "count/req")
      .Metric("runtime.errors_per_req", errors * per_req, "count/req")
      .Metric("runtime.read_errors", read_errors * per_req, "count/req")
      .Metric("runtime.write_errors", write_errors * per_req, "count/req")
      .Metric("runtime.log_dropped", static_cast<double>(dropped), "count")
      .Metric("runtime.error_sites", static_cast<double>(sites.size()), "count")
      .Metric("apps.handle_us.legit.p50", Percentile(legit_us, 0.50), "us")
      .Metric("apps.handle_us.legit.p99", Percentile(legit_us, 0.99), "us")
      .Metric("apps.handle_us.attack.p50", Percentile(attack_us, 0.50), "us")
      .Metric("apps.handle_us.attack.p99", Percentile(attack_us, 0.99), "us")
      .Metric("apps.wire_req_bytes", req_bytes * per_req, "B/req")
      .Metric("apps.wire_resp_bytes", resp_bytes * per_req, "B/req")
      .Metric("apps.worker_start_ms", Median(tracer.worker_start_ms()), "ms")
      .Metric("apps.unacceptable", static_cast<double>(unacceptable), "count")
      .Metric("net.frontend_us_per_req", (pump_ns - busiest_ns) / 1e3 * per_req, "us")
      .Metric("net.lane_busy_ratio", wall_ns > 0 ? handle_ns / (kWorkers * wall_ns) : 0.0,
              "ratio")
      .Metric("net.lane_imbalance", mean_lane_ns > 0 ? busiest_ns / mean_lane_ns : 0.0,
              "ratio")
      .Metric("net.stolen_batches", static_cast<double>(stolen), "count")
      .Metric("net.max_lane_depth", static_cast<double>(max_depth), "count")
      .Metric("net.pump_ms.p50", Percentile(pump_ms, 0.50), "ms")
      .Metric("net.pump_ms.p99", Percentile(pump_ms, 0.99), "ms")
      .Metric("net.reqs_per_pump", mean_reqs_per_pump, "count")
      .Metric("net.ingest_wait_ms.p50", Percentile(ingest_ms, 0.50), "ms")
      .Metric("net.ingest_wait_ms.p99", Percentile(ingest_ms, 0.99), "ms")
      .Metric("net.shed", static_cast<double>(shed), "count")
      .Metric("net.restarts", static_cast<double>(restarts), "count")
      .Metric("net.rejected", static_cast<double>(rejected), "count")
      .Metric("client.gen_lag_ms.p99", Percentile(lag_ms, 0.99), "ms")
      .Metric("client.gen_lag_ms.max", Percentile(lag_ms, 1.0), "ms")
      .Metric("client.p99_ms.light", Percentile(light_ms, 0.99), "ms")
      .Metric("client.p99_ms.heavy", Percentile(heavy_ms, 0.99), "ms")
      .Metric("client.p999_ms.heavy", Percentile(heavy_ms, 0.999), "ms")
      .Metric("client.trace_overhead_ratio", overhead_ratio, "ratio");
}

// Spans as CSV: client.send (due and actual send), net.pump, apps.handle
// (worker slot, client id, parent pump). Times are ns on the steady clock.
void WriteTrace(const std::string& path, const std::vector<const PhaseResult*>& phases) {
  std::ofstream out(path);
  out << "phase,span,id,parent,worker,client,tag,start_ns,end_ns\n";
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& phase = *phases[p];
    const std::string prefix = std::to_string(p) + "-" + phase.name + ",";
    for (size_t i = 0; i < phase.attempted(); ++i) {
      out << prefix << "client.send," << i << "," << phase.pump_of[i] << ",,"
          << phase.clients[i] + 1 << "," << RequestTagName(phase.tags[i]) << "," << phase.due[i]
          << "," << phase.sent[i] << "\n";
    }
    for (const PumpSpan& pump : phase.pumps) {
      out << prefix << "net.pump," << pump.id << ",,,,," << pump.start << "," << pump.end << "\n";
    }
    for (const HandleSpan& span : phase.handles) {
      out << prefix << "apps.handle,," << span.pump << "," << span.worker << "," << span.client
          << "," << RequestTagName(span.tag) << "," << span.start << "," << span.end << "\n";
    }
  }
  if (!out) {
    std::cerr << "serve_bench: could not write the trace to " << path << "\n";
  }
}

int Main(int argc, char** argv) {
  std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed) {
    std::cerr << "usage: serve_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n";
    return 2;
  }
  const Args args = *parsed;
  KeepAlive keep_alive;
  const Workload* workload = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (args.workload == candidate.name) {
      workload = &candidate;
    }
  }
  if (workload == nullptr) {
    std::cerr << "serve_bench: unknown workload \"" << args.workload << "\"\n";
    return 2;
  }
  Runner runner(*workload, args);
  JsonObject metrics;
  JsonObject context;
  context.Num("hardware_concurrency", std::thread::hardware_concurrency())
      .Num("workers", kWorkers)
      .Num("clients", kClients)
      .Num("seed", static_cast<double>(args.seed))
      .Str("build_type", SERVEBENCH_BUILD_TYPE)
      .Str("policy", "FailureOblivious")
      .Str("workload", workload->name)
      .Str("arrivals", "poisson")
      .Num("seconds", args.seconds)
      .Num("light_rps", workload->light_rps)
      .Num("heavy_rps", workload->heavy_rps)
      .Num("latency_limit_ms", workload->limit_ms)
      .Raw("ladder_rps", JsonList(workload->ladder))
      .Num("sat_requests", static_cast<double>(workload->sat_requests))
      .Num("segment_s", kSegmentS)
      .Num("probe_s", kProbeS);

  // Warm-up: lazily built references, allocator arenas and the executor's
  // first wakeups are paid here, untimed.
  runner.SatPass(false);
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  size_t rounds = 0;
  auto more_rounds = [&, start = NowNs()] {
    const int64_t now = NowNs();
    return rounds < kMinRounds ||
           (rounds > 0 && now + (now - start) / static_cast<int64_t>(rounds) <= end);
  };
  if (!args.trace) {
    std::vector<double> setup_s, sat_rps, pooled_light, p50_heavy, p90_heavy;
    size_t heavy_samples = 0;
    for (; more_rounds(); ++rounds) {
      for (int i = 0; i < 3; ++i) {
        setup_s.push_back(runner.SetupSample(false));
      }
      sat_rps.push_back(runner.SatPass(false));
      // Light percentiles pool every light segment of the run: a segment
      // holds only about 50 requests, too few for a p90 of its own, and at
      // the light rate a slow stretch of the machine delays only the few
      // requests that arrive during it. At the heavy rate it also leaves a
      // backlog that every later request of the segment waits behind, so
      // one slow stretch can lift a whole segment's p90 severalfold; heavy
      // percentiles are therefore per segment (about 200 requests each),
      // and the median over segments outvotes such a segment.
      const std::vector<double> light =
          runner.RunPhase("light", workload->light_rps, kSegmentS, false).LatencyMs();
      pooled_light.insert(pooled_light.end(), light.begin(), light.end());
      const std::vector<double> heavy =
          runner.RunPhase("heavy", workload->heavy_rps, kSegmentS, false).LatencyMs();
      p50_heavy.push_back(Percentile(heavy, 0.5));
      p90_heavy.push_back(Percentile(heavy, 0.9));
      heavy_samples += heavy.size();
    }
    context.Num("rounds", static_cast<double>(rounds))
        .Num("light_samples", static_cast<double>(pooled_light.size()))
        .Num("heavy_samples", static_cast<double>(heavy_samples))
        .Raw("rounds_sat_rps", JsonList(sat_rps));
    metrics.Metric("setup_s", Median(setup_s), "s")
        .Metric("sat_rps", Median(sat_rps), "1/s")
        .Metric("p50_ms.light", Percentile(pooled_light, 0.5), "ms")
        .Metric("p90_ms.light", Percentile(pooled_light, 0.9), "ms")
        .Metric("p50_ms.heavy", Median(p50_heavy), "ms")
        .Metric("p90_ms.heavy", Median(p90_heavy), "ms");
  } else {
    std::vector<double> untraced_rps, traced_rps;
    std::vector<PhaseResult> sat, light, heavy;
    Staircase capacity(workload->ladder, workload->heavy_rps);
    const uint64_t split_failed = runner.SplitProbe();
    size_t kept = 0;  // requests whose spans are kept
    for (; more_rounds(); ++rounds) {
      for (int i = 0; i < 2; ++i) {
        capacity.Record(runner.Probe(capacity.rate()));
      }
      runner.SetupSample(true);  // worker_start samples for apps.worker_start_ms
      untraced_rps.push_back(runner.SatPass(false));
      if (kept >= kTraceKeep) {
        traced_rps.push_back(runner.SatPass(true));
        continue;
      }
      traced_rps.push_back(runner.SatPass(true, &sat));
      light.push_back(runner.RunPhase("light", workload->light_rps, kSegmentS, true));
      heavy.push_back(runner.RunPhase("heavy", workload->heavy_rps, kSegmentS, true));
      kept += sat.back().attempted() + light.back().attempted() + heavy.back().attempted();
    }
    std::vector<const PhaseResult*> all, light_phases, heavy_phases;
    for (const PhaseResult& pass : sat) {
      all.push_back(&pass);
    }
    for (size_t i = 0; i < light.size(); ++i) {
      all.push_back(&light[i]);
      all.push_back(&heavy[i]);
      light_phases.push_back(&light[i]);
      heavy_phases.push_back(&heavy[i]);
    }
    context.Num("rounds", static_cast<double>(rounds))
        .Num("traced_rounds", static_cast<double>(light.size()))
        .Str("capacity_probes", capacity.log());
    AddLayerMetrics(metrics, all, light_phases, heavy_phases, runner.tracer(),
                    Median(untraced_rps) / Median(traced_rps));
    metrics.Metric("client.capacity_rps", capacity.Estimate(), "1/s")
        .Metric("net.split_session_failed", static_cast<double>(split_failed), "count");
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, all);
      context.Str("trace_file", args.trace_out);
    }
  }
  const uint64_t errors = runner.correctness_errors();
  const bool correct = errors == 0;
  const double ok_ratio = runner.attempted() > 0
                              ? 1.0 - static_cast<double>(runner.failed()) /
                                          static_cast<double>(runner.attempted())
                              : 0.0;
  if (!args.trace) {
    metrics.Metric("ok_ratio", ok_ratio, "ratio").Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  context.Num("verified_responses", static_cast<double>(runner.verifier().verified()))
      .Num("correctness_errors", static_cast<double>(errors));
  if (errors > 0) {
    std::cerr << "serve_bench: correctness check failed: " << errors << " error(s); first: "
              << runner.verifier().first_error() << "\n";
  }
  std::cout << "context " << context.str() << "\n";
  JsonObject result;
  result.Raw("correct", correct ? "true" : "false")
      .Num("attempted", static_cast<double>(runner.attempted()))
      .Num("failed", static_cast<double>(runner.failed()))
      .Raw("metrics", metrics.str());
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fob

int main(int argc, char** argv) { return fob::Main(argc, argv); }
