// §4.3.2: Apache throughput under attack, through the Frontend.
//
// Several attacker clients hammer the server with requests that trigger the
// rewrite memory error while a legitimate client fetches pages; all of them
// are multiplexed over LineChannels onto the regenerating WorkerPool by the
// Frontend, and we measure the legitimate client's throughput. The paper's
// result: the Failure Oblivious version delivers ~5.7x the Bounds Check
// version's throughput and ~4.8x the Standard version's — the crashing
// versions pay a full child-process restart per attack, and at batch sizes
// > 1 additionally pay the re-queue of every batch the attack aborts.
//
// The FO advantage factor is set by the restart-cost : request-cost ratio.
// We report two regimes:
//   calibrated — heavyweight (830 KB) fetches, so a restart costs a few
//                request-times, matching the paper's testbed ratio;
//   full-init  — in-memory 5 KB fetches, where a restart costs far more
//                than a request (the factor grows, same shape).

#include <cstdio>
#include <string>

#include "src/harness/stats.h"
#include "src/harness/table.h"
#include "src/harness/workloads.h"
#include "src/net/frontend.h"

namespace fob {
namespace {

struct ThroughputResult {
  double legit_per_second = 0;
  uint64_t restarts = 0;
};

ServerRequest Get(const std::string& path, RequestTag tag) {
  return MakeRequest(tag, "get", path);
}

ThroughputResult MeasureThroughput(AccessPolicy policy, const std::string& legit_path,
                                   double duration_ms) {
  Frontend frontend([policy] { return MakeServerApp(Server::kApache, policy); },
                    Frontend::Options{.workers = 4, .batch = 4});
  // Three attacker connections and one legitimate client (3:1 mix).
  LineChannel* attackers[3] = {&frontend.Connect(1), &frontend.Connect(2),
                               &frontend.Connect(3)};
  LineChannel& legit = frontend.Connect(4);
  std::string attack_line = Get(MakeApacheAttackUrl(), RequestTag::kAttack).Serialize();
  std::string legit_line = Get(legit_path, RequestTag::kLegit).Serialize();
  uint64_t legit_ok = 0;
  Stopwatch watch;
  while (watch.ElapsedMs() < duration_ms) {
    for (LineChannel* attacker : attackers) {
      attacker->ClientSend(attack_line);
    }
    legit.ClientSend(legit_line);
    frontend.Pump();
    for (LineChannel::Recv recv = legit.ClientReceiveLine(); recv.has_line();
         recv = legit.ClientReceiveLine()) {
      auto response = ServerResponse::Deserialize(recv.line);
      if (response && response->status == 200) {
        ++legit_ok;
      }
    }
    for (LineChannel* attacker : attackers) {
      attacker->ClientReceiveAll();  // drain
    }
  }
  ThroughputResult result;
  result.legit_per_second = 1000.0 * static_cast<double>(legit_ok) / watch.ElapsedMs();
  result.restarts = frontend.restarts();
  return result;
}

double MeasureRestartToRequestRatio(const std::string& legit_path) {
  auto probe = MakeServerApp(Server::kApache, AccessPolicy::kStandard);
  ServerRequest legit = Get(legit_path, RequestTag::kLegit);
  TimingStats request = MeasureMs([&] { probe->Handle(legit); }, 30);
  // A restart re-runs the factory: full config parse + regex compilation.
  TimingStats restart = MeasureMs(
      [&] { auto worker = MakeServerApp(Server::kApache, AccessPolicy::kStandard); }, 30);
  return request.mean_ms > 0 ? restart.mean_ms / request.mean_ms : 0;
}

void RunRegime(const char* name, const std::string& legit_path, double duration_ms) {
  double ratio = MeasureRestartToRequestRatio(legit_path);
  ThroughputResult oblivious =
      MeasureThroughput(AccessPolicy::kFailureOblivious, legit_path, duration_ms);
  ThroughputResult bounds =
      MeasureThroughput(AccessPolicy::kBoundsCheck, legit_path, duration_ms);
  ThroughputResult standard =
      MeasureThroughput(AccessPolicy::kStandard, legit_path, duration_ms);

  std::printf("Regime: %s (restart costs %.1f request-times)\n", name, ratio);
  Table table({"Version", "Legit req/s", "Worker restarts", "FO advantage"});
  table.AddRow({"Failure Oblivious", Table::Num(oblivious.legit_per_second, 4),
                std::to_string(oblivious.restarts), "1.0x"});
  table.AddRow({"Bounds Check", Table::Num(bounds.legit_per_second, 4),
                std::to_string(bounds.restarts),
                Table::Num(oblivious.legit_per_second / bounds.legit_per_second) + "x"});
  table.AddRow({"Standard", Table::Num(standard.legit_per_second, 4),
                std::to_string(standard.restarts),
                Table::Num(oblivious.legit_per_second / standard.legit_per_second) + "x"});
  std::printf("%s", table.ToString().c_str());
}

void Run() {
  std::printf("Section 4.3.2: Apache throughput under attack (legitimate requests/second)\n");
  RunRegime("restart ~ a few request-times (large fetches, the paper's regime)",
            "/files/big.bin", 1200);
  RunRegime("restart >> request (in-memory 5KB fetches)", "/index.html", 600);
  std::printf("Paper reported: FO ~= 5.7x Bounds Check, ~= 4.8x Standard\n");
  std::printf("(shape: FO >> crashing versions; factor grows with restart:request cost ratio)\n");
}

}  // namespace
}  // namespace fob

int main() {
  fob::Run();
  return 0;
}
