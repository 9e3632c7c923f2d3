// The shard model: Memory as a façade over one self-contained Shard bundle,
// shard-id stamping through the worker pool (stable across crash
// replacements), and the concurrency-determinism property of parallel
// Frontend dispatch — same stream + same seed + N ∈ {1,2,8} workers produce
// identical merged per-request responses and identical merged MemLog site
// aggregates, because N workers own N disjoint shards and the merge rule is
// deterministic (ascending shard-id order).

#include "src/runtime/shard.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/workloads.h"
#include "src/net/frontend.h"
#include "src/runtime/memory.h"

namespace fob {
namespace {

// ---- The bundle -------------------------------------------------------------

TEST(ShardTest, MemoryIsAFacadeOverItsShard) {
  Memory memory(AccessPolicy::kFailureOblivious);
  // The public views and the shard handle are the same objects.
  EXPECT_EQ(&memory.log(), &memory.shard().log);
  EXPECT_EQ(&memory.space(), &memory.shard().space);
  EXPECT_EQ(&memory.objects(), &memory.shard().table);
  EXPECT_EQ(&memory.heap(), memory.shard().heap.get());
  EXPECT_EQ(&memory.stack(), memory.shard().stack.get());
  EXPECT_EQ(&memory.sequence(), &memory.shard().sequence);
  EXPECT_EQ(memory.access_count(), memory.shard().accesses);
}

TEST(ShardTest, TwoShardsShareNothing) {
  Memory a(AccessPolicy::kFailureOblivious);
  Memory b(AccessPolicy::kFailureOblivious);

  Ptr pa = a.Malloc(8, "a_buf");
  // Committing an error in shard A must not disturb shard B's log, oob
  // registry, sequence, or access counter.
  a.ReadU8(pa + 64);
  EXPECT_EQ(a.log().total_errors(), 1u);
  EXPECT_EQ(b.log().total_errors(), 0u);
  EXPECT_EQ(b.access_count(), 0u);
  EXPECT_EQ(b.sequence().values_produced(), 0u);

  // Identical allocation histories produce identical layouts: the bundles
  // are fully self-contained, with no cross-shard allocation state.
  Ptr pb = b.Malloc(8, "b_buf");
  EXPECT_EQ(pa.addr, pb.addr);
}

TEST(ShardTest, ShardIdIsStampedPerWorkerAndSurvivesReplacement) {
  Frontend frontend(MakeServerAppFactory(Server::kApache, AccessPolicy::kStandard),
                    Frontend::Options{.workers = 3, .batch = 1});
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frontend.pool().worker(i).memory().shard_id(), i);
  }
  // Crash worker 0's lane (client 1 is the first-seen client, lane 0) and
  // check the replacement keeps the slot's shard id.
  LineChannel& attacker = frontend.Connect(1);
  attacker.ClientSend(
      MakeRequest(RequestTag::kAttack, "get", MakeApacheAttackUrl()).Serialize());
  attacker.ClientClose();
  frontend.Run();
  EXPECT_EQ(frontend.restarts(), 1u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frontend.pool().worker(i).memory().shard_id(), i);
  }
}

// ---- Concurrency determinism ------------------------------------------------

// The merged site table: each site's label and exact count.
std::map<SiteId, std::string> SiteTable(const MemLog& log) {
  std::map<SiteId, std::string> table;
  for (const auto& [site, stat] : log.sites()) {
    table[site] = stat.Label() + " x" + std::to_string(stat.count);
  }
  return table;
}

// MemLog::Summary() without the lines that follow the worker count by
// design rather than the errors: the access-check and scheduler lines, and
// the detail-ring line (a merged log's ring holds every shard's ring).
std::string ErrorDigest(const MemLog& log) {
  std::istringstream lines(log.Summary());
  std::string digest;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  access checks", 0) != 0 && line.rfind("  scheduler", 0) != 0 &&
        line.rfind("  detail ring", 0) != 0) {
      digest += line;
      digest += '\n';
    }
  }
  return digest;
}

// Apache and Mutt handle each request independently of accumulated shard
// state (their FO continuations do not leak manufactured-sequence phase or
// heap history into responses or error counts), so distributing a stream
// over N shards must not change the merged outcome at all. Pine and Sendmail
// are deliberately not pinned here: their per-request behavior reads the
// shard's manufactured-value phase, which sharding legitimately
// redistributes. MC is pinned on archive browsing only (below), where every
// request carries its whole archive.
void ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server server, const TrafficStream& stream,
                                                   const ServerFactory& factory) {

  FrontendReport baseline =
      RunFrontendExperiment(factory, stream, Frontend::Options{.workers = 1, .batch = 4});
  ASSERT_EQ(baseline.responses.size(), stream.requests.size());
  ASSERT_GT(baseline.merged_log.total_errors(), 0u) << "stream reached no error sites";
  ASSERT_EQ(baseline.restarts, 0u);

  for (size_t workers : {2u, 8u}) {
    FrontendReport parallel = RunFrontendExperiment(
        factory, stream, Frontend::Options{.workers = workers, .batch = 4});
    ASSERT_EQ(parallel.responses.size(), stream.requests.size());
    for (size_t i = 0; i < stream.requests.size(); ++i) {
      EXPECT_EQ(parallel.responses[i].Serialize(), baseline.responses[i].Serialize())
          << ServerName(server) << ": response " << i << " differs at workers=" << workers;
    }
    EXPECT_EQ(parallel.merged_log.total_errors(), baseline.merged_log.total_errors())
        << ServerName(server) << " at workers=" << workers;
    EXPECT_EQ(SiteTable(parallel.merged_log), SiteTable(baseline.merged_log))
        << ServerName(server) << ": merged site aggregates differ at workers=" << workers;
    EXPECT_EQ(parallel.merged_log.errors_by_unit(), baseline.merged_log.errors_by_unit())
        << ServerName(server) << " at workers=" << workers;
    EXPECT_EQ(ErrorDigest(parallel.merged_log), ErrorDigest(baseline.merged_log))
        << ServerName(server) << " at workers=" << workers;
    EXPECT_EQ(parallel.restarts, 0u);
    EXPECT_EQ(parallel.stats.served, baseline.stats.served);
  }
}

void ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server server) {
  StreamOptions stream_options;
  stream_options.requests = 48;
  stream_options.clients = 6;
  stream_options.attack_period = 4;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 7;
  ExpectMergedOutcomeInvariantAcrossWorkerCounts(
      server, MakeTrafficStream(server, stream_options),
      MakeServerAppFactory(server, AccessPolicy::kFailureOblivious));
}

TEST(ShardDeterminismTest, ApacheMergedOutcomeIdenticalFor1And2And8Workers) {
  ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server::kApache);
}

TEST(ShardDeterminismTest, MuttMergedOutcomeIdenticalFor1And2And8Workers) {
  ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server::kMutt);
}

// The error-heavy case: MC archive browsing with 1 attack browse in 4 (the
// symlink-overflow .tgz), the rest benign archives — thousands of logged
// errors per attack. Each browse carries its archive, so handling depends on
// shard history only through the manufactured-value phase, and one browse
// settles that phase: the overflowed '/' scan always stops on the same
// manufactured value. Each worker therefore serves one warm-up attack browse
// and clears its log before it joins the pool; from there the merged error
// log itself — site table, per-unit histogram and the error part of the
// operator digest — must come out byte-identical at every worker count
// (all checked by the shared helper above).
TEST(ShardDeterminismTest, McBrowseMergedLogIdenticalFor1And2And8Workers) {
  const std::string attack_tgz = MakeMcAttackTgz();
  const std::string benign_tgz = MakeMcBenignTgz();
  ServerFactory fresh = MakeServerAppFactory(Server::kMc, AccessPolicy::kFailureOblivious,
                                             ServerSetup{.mc_config_blank_lines = false});
  ServerFactory factory = [fresh, attack_tgz] {
    std::unique_ptr<ServerApp> app = fresh();
    ServerRequest warm_up = MakeRequest(RequestTag::kAttack, "browse");
    warm_up.payload = attack_tgz;
    app->Handle(warm_up);
    app->memory().log().Clear();
    return app;
  };
  TrafficStream stream;
  for (uint64_t i = 0; i < 48; ++i) {
    bool attack = i % 4 == 3;
    ServerRequest browse = MakeRequest(attack ? RequestTag::kAttack : RequestTag::kLegit, "browse");
    browse.client_id = 1 + i % 6;
    browse.payload = attack ? attack_tgz : benign_tgz;
    stream.requests.push_back(std::move(browse));
  }
  ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server::kMc, stream, factory);

  // Error-heavy: one attack browse alone logs over a thousand errors.
  std::unique_ptr<ServerApp> app = factory();
  app->Handle(stream.requests[3]);
  EXPECT_GT(app->memory().log().total_errors(), 1000u);
}

// The access-check counters are part of the deterministic outcome:
// identical stream + seed + worker count must produce identical merged
// translation hit/miss totals (shards are disjoint and access streams are
// replayed identically, so the counters can only differ if dispatch
// nondeterminism leaked into the access path).
TEST(ShardDeterminismTest, TranslationCountersAreDeterministicPerRun) {
  StreamOptions stream_options;
  stream_options.requests = 48;
  stream_options.clients = 6;
  stream_options.attack_period = 4;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 7;
  TrafficStream stream = MakeTrafficStream(Server::kApache, stream_options);
  ServerFactory factory = MakeServerAppFactory(Server::kApache, AccessPolicy::kFailureOblivious);
  Frontend::Options options{.workers = 2, .batch = 4};

  FrontendReport first = RunFrontendExperiment(factory, stream, options);
  FrontendReport second = RunFrontendExperiment(factory, stream, options);
  ASSERT_GT(first.merged_log.translation_hits() + first.merged_log.translation_misses(), 0u)
      << "stream exercised no checked accesses";
  EXPECT_EQ(first.merged_log.translation_hits(), second.merged_log.translation_hits());
  EXPECT_EQ(first.merged_log.translation_misses(), second.merged_log.translation_misses());
}

TEST(ShardDeterminismTest, StealingKeepsMergedOutcomeInvariantForAHotClient) {
  // One client means one sticky lane: at workers>1 every other lane is idle
  // and the steal plan must redistribute the hot backlog across shards
  // (stolen_batches > 0 — stealing is actually exercised, not vacuous).
  // Apache handles each request independently of shard history, so the
  // merged outcome must still be byte-identical to the single-worker run
  // even though different worker counts steal onto different shards.
  StreamOptions stream_options;
  stream_options.requests = 48;
  stream_options.clients = 1;
  stream_options.attack_period = 4;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 7;
  TrafficStream stream = MakeTrafficStream(Server::kApache, stream_options);
  ServerFactory factory = MakeServerAppFactory(Server::kApache, AccessPolicy::kFailureOblivious);

  FrontendReport baseline =
      RunFrontendExperiment(factory, stream, Frontend::Options{.workers = 1, .batch = 4});
  ASSERT_EQ(baseline.responses.size(), stream.requests.size());
  ASSERT_GT(baseline.merged_log.total_errors(), 0u) << "stream reached no error sites";
  EXPECT_EQ(baseline.stats.stolen_batches, 0u);  // one lane: nothing to steal

  for (size_t workers : {2u, 8u}) {
    FrontendReport parallel = RunFrontendExperiment(
        factory, stream, Frontend::Options{.workers = workers, .batch = 4});
    EXPECT_GT(parallel.stats.stolen_batches, 0u) << "workers=" << workers;
    ASSERT_EQ(parallel.responses.size(), stream.requests.size());
    for (size_t i = 0; i < stream.requests.size(); ++i) {
      EXPECT_EQ(parallel.responses[i].Serialize(), baseline.responses[i].Serialize())
          << "response " << i << " differs at workers=" << workers;
    }
    EXPECT_EQ(parallel.merged_log.total_errors(), baseline.merged_log.total_errors())
        << "workers=" << workers;
    EXPECT_EQ(SiteTable(parallel.merged_log), SiteTable(baseline.merged_log))
        << "merged site aggregates differ at workers=" << workers;
    // The merged log carries the scheduler's story too.
    EXPECT_EQ(parallel.merged_log.stolen_batches(), parallel.stats.stolen_batches);
    EXPECT_EQ(parallel.restarts, 0u);
  }
}

TEST(ShardDeterminismTest, CrashingPolicyRunsAreRepeatableUnderParallelDispatch) {
  // Even when workers crash and are replaced mid-run, sticky lanes plus
  // post-join merging make the whole run a deterministic function of the
  // stream: two identical parallel runs agree response-for-response, on
  // restart count, and on requeue accounting.
  StreamOptions stream_options;
  stream_options.requests = 32;
  stream_options.clients = 5;
  stream_options.attack_period = 3;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 11;
  TrafficStream stream = MakeTrafficStream(Server::kApache, stream_options);
  ServerFactory factory = MakeServerAppFactory(Server::kApache, AccessPolicy::kStandard);
  Frontend::Options options{.workers = 4, .batch = 4};

  FrontendReport first = RunFrontendExperiment(factory, stream, options);
  FrontendReport second = RunFrontendExperiment(factory, stream, options);
  ASSERT_GT(first.restarts, 0u) << "attack stream crashed no workers";
  EXPECT_EQ(first.restarts, second.restarts);
  EXPECT_EQ(first.stats.failed, second.stats.failed);
  EXPECT_EQ(first.stats.requeued, second.stats.requeued);
  EXPECT_EQ(first.stats.batches, second.stats.batches);
  ASSERT_EQ(first.responses.size(), second.responses.size());
  for (size_t i = 0; i < first.responses.size(); ++i) {
    EXPECT_EQ(first.responses[i].Serialize(), second.responses[i].Serialize()) << "response " << i;
  }
}

}  // namespace
}  // namespace fob
