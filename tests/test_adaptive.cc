// Online context-aware policy learning (src/runtime/adaptive.h +
// RunAdaptiveExperiment): the controller's bandit mechanics at unit level,
// the live-respec plumbing it rides on, and the two headline end-to-end
// properties —
//
//   determinism   same stream + seed + worker count ⇒ identical learned
//                 PolicySpec and identical convergence trace;
//   learning      the learned MC assignment achieves acceptable continuation
//                 with far fewer logged errors than uniform failure-
//                 oblivious serving (the Rigger-style online selection
//                 approaching the Durieux-style offline sweep's winner).

#include "src/runtime/adaptive.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/net/frontend.h"
#include "src/runtime/memory.h"

namespace fob {
namespace {

// Builds a MemLog carrying `count` errors at one synthetic site.
MemLog LogWithSite(const std::string& unit, const std::string& function, bool is_write,
                   uint64_t count) {
  MemLog log;
  MemSiteStat& site =
      log.Intern(unit, function, is_write ? AccessKind::kWrite : AccessKind::kRead);
  for (uint64_t i = 0; i < count; ++i) {
    log.Record(site, MemErrorRecord{});
  }
  return log;
}

// ---- Controller mechanics ---------------------------------------------------

TEST(AdaptiveControllerTest, RegistersSitesInAscendingShardOrderAndTracksDeltas) {
  AdaptivePolicyController controller;
  MemLog shard0 = LogWithSite("buf", "parse", /*is_write=*/true, 5);
  MemLog shard1 = LogWithSite("idx", "render", /*is_write=*/false, 3);
  controller.ObserveShardLog(0, shard0);
  controller.ObserveShardLog(1, shard1);
  ASSERT_EQ(controller.sites().size(), 2u);
  EXPECT_EQ(controller.sites()[0].unit_name, "buf");
  EXPECT_EQ(controller.sites()[1].unit_name, "idx");
  EXPECT_EQ(controller.sites()[0].epoch_errors, 5u);

  controller.EndEpoch(EpochVerdict{});

  // Cumulative logs are differenced: re-observing the same totals adds no
  // new epoch errors; growth adds exactly the delta.
  controller.ObserveShardLog(0, shard0);
  EXPECT_EQ(controller.sites()[0].epoch_errors, 0u);
  MemLog grown = LogWithSite("buf", "parse", /*is_write=*/true, 9);
  controller.ObserveShardLog(0, grown);
  EXPECT_EQ(controller.sites()[0].epoch_errors, 4u);
  // A shrunken count means the shard restarted with a fresh log: all new.
  MemLog fresh = LogWithSite("buf", "parse", /*is_write=*/true, 2);
  controller.ObserveShardLog(0, fresh);
  EXPECT_EQ(controller.sites()[0].epoch_errors, 6u);
}

TEST(AdaptiveControllerTest, IncarnationChangeResetsTheDeltaBaseline) {
  // A replacement that re-accumulates *past* the dead worker's count would
  // fool the shrunken-count heuristic; the incarnation counter must reset
  // the baseline so the fresh log is read in full.
  AdaptivePolicyController controller;
  controller.ObserveShardLog(0, LogWithSite("buf", "parse", true, 10), /*incarnation=*/1);
  controller.EndEpoch(EpochVerdict{});
  // Same incarnation: cumulative difference. New incarnation: all new.
  controller.ObserveShardLog(0, LogWithSite("buf", "parse", true, 12), /*incarnation=*/2);
  EXPECT_EQ(controller.sites()[0].epoch_errors, 12u);
}

TEST(AdaptiveControllerTest, EpochZeroSeedsThePriorArmOfEverySite) {
  AdaptivePolicyController::Options options;
  options.prior = AccessPolicy::kFailureOblivious;
  AdaptivePolicyController controller(options);
  controller.ObserveShardLog(0, LogWithSite("a", "f", true, 10));
  controller.ObserveShardLog(0, LogWithSite("b", "g", false, 2));
  uint64_t errors = controller.EndEpoch(EpochVerdict{});
  EXPECT_EQ(errors, 12u);
  for (const AdaptiveSiteState& site : controller.sites()) {
    uint64_t pulled = 0;
    for (const AdaptiveArm& arm : site.arms) {
      pulled += arm.pulls;
      if (arm.policy == options.prior) {
        EXPECT_EQ(arm.pulls, 1u);
        EXPECT_LT(arm.total_reward, 0.0);  // -errors
      }
    }
    EXPECT_EQ(pulled, 1u) << "only the prior arm ran in epoch 0";
  }
}

TEST(AdaptiveControllerTest, CrashRetiresTerminateArmsAtTheResponsibleSite) {
  AdaptivePolicyController::Options options;
  options.candidates = {AccessPolicy::kFailureOblivious, AccessPolicy::kThreshold,
                        AccessPolicy::kBoundsCheck};
  AdaptivePolicyController controller(options);
  controller.ObserveShardLog(0, LogWithSite("hot", "serve", true, 100));
  controller.EndEpoch(EpochVerdict{});

  // The focus site now covers its untried arms; drive epochs until it holds
  // a terminate-capable arm, then report a crashed epoch.
  bool crashed_once = false;
  for (int epoch = 0; epoch < 8 && !crashed_once; ++epoch) {
    const AdaptiveSiteState& site = controller.sites()[0];
    EpochVerdict verdict;
    if (PolicyTerminates(site.current)) {
      verdict.restarts = 1;
      verdict.legit_ok = false;
      crashed_once = true;
    }
    controller.ObserveShardLog(0, MemLog());
    controller.EndEpoch(verdict);
  }
  ASSERT_TRUE(crashed_once);
  const AdaptiveSiteState& site = controller.sites()[0];
  EXPECT_TRUE(site.crash_tainted);
  for (const AdaptiveArm& arm : site.arms) {
    EXPECT_EQ(arm.disabled, PolicyTerminates(arm.policy)) << PolicyName(arm.policy);
  }
  // The retired arms are never selected again.
  for (int epoch = 0; epoch < 20; ++epoch) {
    controller.ObserveShardLog(0, MemLog());
    controller.EndEpoch(EpochVerdict{});
    EXPECT_FALSE(PolicyTerminates(controller.sites()[0].current));
  }
}

TEST(AdaptiveControllerTest, StandingTerminateArmAtNonFocusSiteIsBlamedAndRetired) {
  // A kThreshold arm can crash a worker in an epoch where its site is NOT
  // the focus (the handler's error counter persists across rebinds): the
  // rail must retire terminate arms at every culprit site, focus or not,
  // and innocent continuing arms must not absorb the crash penalty.
  AdaptivePolicyController::Options options;
  options.candidates = {AccessPolicy::kFailureOblivious, AccessPolicy::kThreshold};
  options.epsilon = 0.0;
  AdaptivePolicyController controller(options);

  // Epoch 0: two sites discovered under the prior.
  controller.ObserveShardLog(0, LogWithSite("a", "f", true, 5));
  controller.ObserveShardLog(0, LogWithSite("b", "g", true, 100));
  controller.EndEpoch(EpochVerdict{});
  ASSERT_EQ(controller.focus_site(), 0u);
  ASSERT_EQ(controller.sites()[0].current, AccessPolicy::kThreshold);  // untried first

  // Epoch 1: site a's threshold pull looks great (1 error), so it becomes
  // a's standing best; focus moves to site b.
  controller.ObserveShardLog(0, LogWithSite("a", "f", true, 6));
  controller.EndEpoch(EpochVerdict{});
  ASSERT_EQ(controller.focus_site(), 1u);
  ASSERT_EQ(controller.sites()[0].current, AccessPolicy::kThreshold);  // standing, non-focus

  // Epoch 2: a worker is lost. Site a holds a terminate-capable arm while
  // not being the focus — it is a culprit and must be retired.
  EpochVerdict crash;
  crash.restarts = 1;
  crash.legit_ok = false;
  controller.EndEpoch(crash);

  const AdaptiveSiteState& a = controller.sites()[0];
  EXPECT_TRUE(a.crash_tainted);
  for (const AdaptiveArm& arm : a.arms) {
    EXPECT_EQ(arm.disabled, PolicyTerminates(arm.policy)) << PolicyName(arm.policy);
    if (arm.policy == AccessPolicy::kThreshold) {
      EXPECT_EQ(arm.pulls, 2u);  // the focus pull + the forced penalty pull
      EXPECT_LT(arm.total_reward, -1e6);
    }
    if (arm.policy == AccessPolicy::kFailureOblivious) {
      EXPECT_GT(arm.total_reward, -1e4) << "innocent arm absorbed the crash penalty";
    }
  }
  EXPECT_FALSE(PolicyTerminates(controller.BestSpec().Resolve(a.site)));
}

TEST(AdaptiveControllerTest, LearnsTheLowErrorArmAndBestSpecReportsIt) {
  AdaptivePolicyController::Options options;
  options.candidates = {AccessPolicy::kFailureOblivious, AccessPolicy::kWrap};
  options.epsilon = 0.0;  // pure cover-then-exploit, no random pulls
  AdaptivePolicyController controller(options);
  SiteId site = MakeSiteId("hot", "serve", AccessKind::kWrite);

  // Simulated environment: FO logs 50 errors per epoch at the site, Wrap
  // logs 5. Epoch 0 runs the prior (FO); the focus pass tries Wrap next.
  uint64_t cumulative = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    AccessPolicy current =
        controller.sites().empty() ? options.prior : controller.sites()[0].current;
    cumulative += current == AccessPolicy::kWrap ? 5 : 50;
    controller.ObserveShardLog(0, LogWithSite("hot", "serve", true, cumulative));
    controller.EndEpoch(EpochVerdict{});
  }
  ASSERT_EQ(controller.sites().size(), 1u);
  EXPECT_EQ(controller.sites()[0].current, AccessPolicy::kWrap);
  EXPECT_EQ(controller.BestSpec().Resolve(site), AccessPolicy::kWrap);
  EXPECT_EQ(controller.BestSpec().fallback(), options.prior);
}

TEST(AdaptiveControllerTest, IdenticalObservationsYieldIdenticalTrajectories) {
  auto run = [] {
    AdaptivePolicyController::Options options;
    options.seed = 7;
    options.epsilon = 0.5;  // exercise the random path hard
    AdaptivePolicyController controller(options);
    std::vector<AccessPolicy> trajectory;
    uint64_t cumulative = 0;
    for (int epoch = 0; epoch < 30; ++epoch) {
      cumulative += 17;
      controller.ObserveShardLog(0, LogWithSite("u", "f", true, cumulative));
      controller.EndEpoch(EpochVerdict{});
      trajectory.push_back(controller.sites()[0].current);
    }
    return trajectory;
  };
  EXPECT_EQ(run(), run());
}

// ---- Live respec plumbing ---------------------------------------------------

TEST(AdaptiveRebindTest, FrontendRebindRespecsLiveWorkersAndReplacements) {
  // Workers constructed under FO; rebind to a uniform Standard spec makes
  // the attack crash a worker — and the crash *replacement*, built by the
  // FO factory, must also serve under the rebound spec.
  Frontend::Options options;
  options.workers = 1;
  options.batch = 4;
  Frontend frontend(MakeServerAppFactory(Server::kSendmail, AccessPolicy::kFailureOblivious),
                    options);
  EXPECT_EQ(frontend.pool().worker(0).memory().policy(), AccessPolicy::kFailureOblivious);

  frontend.Rebind(PolicySpec(AccessPolicy::kStandard));
  EXPECT_EQ(frontend.pool().worker(0).memory().policy(), AccessPolicy::kStandard);

  TrafficStream stream = MakeAttackStream(Server::kSendmail);
  for (const ServerRequest& request : stream.requests) {
    frontend.Connect(1).ClientSend(request.Serialize());
  }
  frontend.Connect(1).ClientClose();
  frontend.Run();
  EXPECT_GE(frontend.restarts(), 1u) << "the attack should crash a Standard worker";
  EXPECT_EQ(frontend.pool().worker(0).memory().policy(), AccessPolicy::kStandard)
      << "the replacement must inherit the rebound spec, not the factory's";
}

// ---- End to end -------------------------------------------------------------

AdaptiveExperimentOptions McOptions() {
  AdaptiveExperimentOptions options;
  // The sweep's candidate set keeps the run fast while still spanning the
  // interesting continuations (incl. per-site termination).
  options.controller.candidates = {kSweepCandidates.begin(), kSweepCandidates.end()};
  options.controller.max_sites = 3;
  options.epochs = 20;
  return options;
}

TEST(AdaptiveExperimentTest, SameStreamSeedAndWorkersLearnTheIdenticalAssignment) {
  TrafficStream stream = MakeMultiAttackStream(Server::kMc);
  AdaptiveReport a = RunAdaptiveExperiment(Server::kMc, stream, McOptions());
  AdaptiveReport b = RunAdaptiveExperiment(Server::kMc, stream, McOptions());

  EXPECT_EQ(a.learned.fallback(), b.learned.fallback());
  EXPECT_EQ(a.learned.overrides(), b.learned.overrides());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].errors, b.trace[i].errors) << "epoch " << i;
    EXPECT_EQ(a.trace[i].restarts, b.trace[i].restarts) << "epoch " << i;
    EXPECT_EQ(a.trace[i].spec.overrides(), b.trace[i].spec.overrides()) << "epoch " << i;
  }
  EXPECT_EQ(a.validation.memory_errors_logged, b.validation.memory_errors_logged);
}

TEST(AdaptiveExperimentTest, LearnedMcAssignmentBeatsUniformFailureOblivious) {
  TrafficStream stream = MakeMultiAttackStream(Server::kMc);
  AttackReport uniform = RunStreamExperiment(
      [&] { return MakeAttackServer(Server::kMc, AccessPolicy::kFailureOblivious); }, stream);
  ASSERT_EQ(uniform.outcome, Outcome::kContinued);
  ASSERT_GT(uniform.memory_errors_logged, 1000u) << "uniform FO should log heavily on MC";

  AdaptiveReport adaptive = RunAdaptiveExperiment(Server::kMc, stream, McOptions());
  EXPECT_EQ(adaptive.validation.outcome, Outcome::kContinued);
  EXPECT_TRUE(adaptive.validation.subsequent_requests_ok);
  // "Well under" the uniform FO baseline: the learner must land in the
  // order of magnitude of the sweep's best mixed assignment, not FO's.
  EXPECT_LT(adaptive.validation.memory_errors_logged, uniform.memory_errors_logged / 4);

  // The trace is renderable and names the learned assignment.
  std::string trace = adaptive.ToTraceString();
  EXPECT_NE(trace.find("learned:"), std::string::npos);
  EXPECT_NE(trace.find("epoch 0:"), std::string::npos);
}

TEST(AdaptiveExperimentTest, SendmailMultiAttackLearnerStaysAcceptable) {
  // The kThreshold trap stream (tests/test_sweep.cc): threshold on the hot
  // site terminates mid-stream. The online learner must end on an
  // assignment that serves the whole stream acceptably.
  TrafficStream stream = MakeMultiAttackStream(Server::kSendmail);
  AdaptiveExperimentOptions options;
  options.controller.candidates = {AccessPolicy::kThreshold, AccessPolicy::kFailureOblivious};
  options.controller.max_sites = 2;
  options.epochs = 10;
  AdaptiveReport report = RunAdaptiveExperiment(Server::kSendmail, stream, options);
  EXPECT_EQ(report.validation.outcome, Outcome::kContinued);
  EXPECT_TRUE(report.validation.subsequent_requests_ok);
  // An epoch that lost a worker to kThreshold retired the terminate arms.
  for (const AdaptiveSiteState& site : report.sites) {
    if (site.crash_tainted) {
      EXPECT_FALSE(PolicyTerminates(report.learned.Resolve(site.site)));
    }
  }
}

}  // namespace
}  // namespace fob
