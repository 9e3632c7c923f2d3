// Session-equivalence property: for every server and every policy, driving
// the §4 attack workload through the ServerApp adapter produces *identical*
// responses, memlog contents, and Outcome to the legacy direct calls the
// harness used to hard-code per server. This is what licenses the harness
// rewrite: the uniform session API is a pure re-plumbing of the same
// simulated-memory operation sequence, not a behavioral change.
//
// The "legacy" side below is a faithful copy of the per-server glue the old
// RunAttackExperiment carried (direct app-method calls in the §4 order);
// the "adapter" side drives MakeAttackServer with MakeAttackStream through
// ServerApp::Handle. Both snapshot outcome, acceptability, every response,
// and the full memory-error log.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/apache.h"
#include "src/apps/archive_inbox.h"
#include "src/apps/codec_gateway.h"
#include "src/apps/mc.h"
#include "src/apps/mutt.h"
#include "src/apps/pine.h"
#include "src/apps/sendmail.h"
#include "src/codec/base64.h"
#include "src/codec/utf7.h"
#include "src/harness/experiment.h"
#include "src/harness/workloads.h"
#include "src/net/imap.h"
#include "src/runtime/process.h"

namespace fob {
namespace {

constexpr uint64_t kHangBudget = 5'000'000;

struct RunSnapshot {
  Outcome outcome = Outcome::kWrongOutput;
  bool subsequent_ok = false;
  uint64_t total_errors = 0;
  std::vector<std::string> sites;      // "unit|function|rw|count", log order
  std::vector<std::string> recent;     // MemLog::ToString(record)
  std::vector<std::string> responses;  // one digest per §4 op, in order
};

std::string Digest(bool ok, const std::string& display, const std::string& error) {
  return std::string(ok ? "ok" : "err") + "|" + display + "|" + error;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string joined;
  for (const std::string& line : lines) {
    joined += line;
    joined += '\n';
  }
  return joined;
}

void SnapshotLog(const MemLog* log, RunSnapshot& snap) {
  if (log == nullptr) {
    return;
  }
  snap.total_errors = log->total_errors();
  for (const auto& [site, stat] : log->sites()) {
    snap.sites.push_back(stat.unit_name + "|" + stat.function + "|" +
                         (stat.is_write ? "w" : "r") + "|" + std::to_string(stat.count));
  }
  for (const MemErrorRecord& record : log->recent()) {
    snap.recent.push_back(log->ToString(record));
  }
}

// ---- The legacy direct-call sequences (§4, one per server) ----------------

RunSnapshot LegacyPine(const PolicySpec& spec) {
  RunSnapshot snap;
  std::unique_ptr<PineApp> pine;
  bool output_acceptable = false;
  bool subsequent_ok = false;
  RunResult result = RunAsProcess([&] {
    pine = std::make_unique<PineApp>(spec, MakePineMbox(6, /*include_attack=*/true));
    pine->memory().set_access_budget(kHangBudget);
    snap.responses.push_back(Join(pine->IndexLines()));
    output_acceptable = pine->IndexLines().size() == 7;
    auto read = pine->ReadMessage(0);
    snap.responses.push_back(Digest(read.ok, read.display, read.error));
    auto compose = pine->Compose("friend0@example.org", "re: message 0", "thanks!\n");
    snap.responses.push_back(Digest(compose.ok, compose.display, compose.error));
    auto move = pine->MoveMessage(0, "saved");
    snap.responses.push_back(Digest(move.ok, move.display, move.error));
    subsequent_ok = read.ok && compose.ok && move.ok && pine->FolderSize("saved") == 1;
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(pine != nullptr ? &pine->memory().log() : nullptr, snap);
  return snap;
}

RunSnapshot LegacyApache(const PolicySpec& spec) {
  RunSnapshot snap;
  Vfs docroot = MakeApacheDocroot();
  std::unique_ptr<ApacheApp> apache;
  bool output_acceptable = false;
  bool subsequent_ok = false;
  RunResult result = RunAsProcess([&] {
    apache = std::make_unique<ApacheApp>(spec, &docroot, ApacheApp::DefaultConfigText());
    apache->memory().set_access_budget(kHangBudget);
    HttpResponse attack = apache->Handle(MakeHttpGet(MakeApacheAttackUrl()));
    snap.responses.push_back(std::to_string(attack.status) + "|" + attack.body);
    output_acceptable = attack.status == 200 || attack.status == 404;
    HttpResponse legit = apache->Handle(MakeHttpGet("/index.html"));
    snap.responses.push_back(std::to_string(legit.status) + "|" + legit.body);
    subsequent_ok = legit.status == 200 && legit.body.size() > 4000;
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(apache != nullptr ? &apache->memory().log() : nullptr, snap);
  return snap;
}

RunSnapshot LegacySendmail(const PolicySpec& spec) {
  RunSnapshot snap;
  std::unique_ptr<SendmailApp> sendmail;
  bool output_acceptable = false;
  bool subsequent_ok = false;
  RunResult result = RunAsProcess([&] {
    sendmail = std::make_unique<SendmailApp>(spec);
    sendmail->memory().set_access_budget(kHangBudget);
    auto attack_responses = sendmail->HandleSession(MakeSendmailAttackSession());
    snap.responses.push_back(Join(attack_responses));
    bool rejected = false;
    for (const std::string& response : attack_responses) {
      if (response.substr(0, 3) == "553") {
        rejected = true;
      }
    }
    output_acceptable = rejected && attack_responses.back().substr(0, 3) == "221";
    auto legit = sendmail->HandleSession(MakeSendmailSession("user@localhost", 64));
    snap.responses.push_back(Join(legit));
    subsequent_ok = sendmail->local_mailbox().size() == 1 &&
                    legit.back().substr(0, 3) == "221";
    sendmail->DaemonWakeup();
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(sendmail != nullptr ? &sendmail->memory().log() : nullptr, snap);
  return snap;
}

RunSnapshot LegacyMc(const PolicySpec& spec) {
  RunSnapshot snap;
  std::unique_ptr<McApp> mc;
  bool output_acceptable = false;
  bool subsequent_ok = false;
  RunResult result = RunAsProcess([&] {
    mc = std::make_unique<McApp>(spec, McApp::DefaultConfigText(/*with_blank_lines=*/true));
    mc->memory().set_access_budget(kHangBudget);
    auto listing = mc->BrowseTgz(MakeMcAttackTgz());
    snap.responses.push_back(Digest(listing.ok, Join(listing.rows), listing.error));
    output_acceptable = listing.ok && listing.rows.size() == 6;
    snap.responses.push_back(
        std::to_string(MakeMcTree(mc->fs(), "/home/user/tree", 256 << 10)));
    bool copied = mc->Copy("/home/user/tree", "/home/user/tree2");
    snap.responses.push_back(Digest(copied, "", ""));
    bool made = mc->MkDir("/home/user/newdir");
    snap.responses.push_back(Digest(made, "", ""));
    bool moved = mc->Move("/home/user/tree2", "/home/user/tree3");
    snap.responses.push_back(Digest(moved, "", ""));
    bool deleted = mc->Delete("/home/user/tree3");
    snap.responses.push_back(Digest(deleted, "", ""));
    subsequent_ok = copied && made && moved && deleted;
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(mc != nullptr ? &mc->memory().log() : nullptr, snap);
  return snap;
}

RunSnapshot LegacyMutt(const PolicySpec& spec) {
  RunSnapshot snap;
  ImapServer imap;
  imap.AddFolderUtf8("INBOX", {MailMessage::Make("a@b", "me@here", "hello", "body\n"),
                               MailMessage::Make("c@d", "me@here", "again", "more\n")});
  imap.AddFolderUtf8("archive", {});
  std::unique_ptr<MuttApp> mutt;
  bool output_acceptable = false;
  bool subsequent_ok = false;
  RunResult result = RunAsProcess([&] {
    mutt = std::make_unique<MuttApp>(spec, &imap);
    mutt->memory().set_access_budget(kHangBudget);
    auto open = mutt->OpenFolder(MakeMuttAttackFolderName());
    snap.responses.push_back(Digest(open.ok, open.display, open.error));
    output_acceptable = !open.ok && open.error.find("does not exist") != std::string::npos;
    auto inbox = mutt->OpenFolder("INBOX");
    snap.responses.push_back(Digest(inbox.ok, inbox.display, inbox.error));
    auto read = mutt->ReadMessage("INBOX", 1);
    snap.responses.push_back(Digest(read.ok, read.display, read.error));
    auto move = mutt->MoveMessage("INBOX", 1, "archive");
    snap.responses.push_back(Digest(move.ok, move.display, move.error));
    subsequent_ok = inbox.ok && read.ok && move.ok;
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(mutt != nullptr ? &mutt->memory().log() : nullptr, snap);
  return snap;
}

RunSnapshot LegacyArchive(const PolicySpec& spec) {
  RunSnapshot snap;
  std::unique_ptr<ArchiveInboxApp> inbox;
  bool output_acceptable = false;
  bool subsequent_ok = false;
  RunResult result = RunAsProcess([&] {
    inbox = std::make_unique<ArchiveInboxApp>(spec);
    inbox->memory().set_access_budget(kHangBudget);
    auto upload = inbox->Upload("drop0", MakeArchiveAttackTgz());
    snap.responses.push_back(Digest(upload.ok, upload.display, upload.error));
    output_acceptable = upload.ok && upload.files.size() == 3;
    auto list = inbox->List("drop0");
    snap.responses.push_back(Digest(list.ok, list.display, list.error));
    auto benign = inbox->Upload("drop1", MakeArchiveBenignTgz());
    snap.responses.push_back(Digest(benign.ok, benign.display, benign.error));
    auto extract = inbox->Extract("drop0", "pkg/readme.txt");
    snap.responses.push_back(Digest(extract.ok, extract.display, extract.error));
    auto drop = inbox->Drop("drop1");
    snap.responses.push_back(Digest(drop.ok, drop.display, drop.error));
    subsequent_ok = list.ok && list.files.size() == 3 && benign.ok &&
                    benign.files.size() == 2 && extract.ok && drop.ok;
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(inbox != nullptr ? &inbox->memory().log() : nullptr, snap);
  return snap;
}

RunSnapshot LegacyCodec(const PolicySpec& spec) {
  RunSnapshot snap;
  std::unique_ptr<CodecGatewayApp> codec;
  bool output_acceptable = false;
  bool subsequent_ok = false;
  RunResult result = RunAsProcess([&] {
    codec = std::make_unique<CodecGatewayApp>(spec);
    codec->memory().set_access_budget(kHangBudget);
    auto bomb = codec->Transcode("u7to8", "utf7", MakeCodecBombUtf7());
    snap.responses.push_back(Digest(bomb.ok, bomb.output, bomb.error));
    output_acceptable = bomb.ok;
    auto hello = codec->Transcode("u7to8", "utf7", "Hello&AOk-!");
    snap.responses.push_back(Digest(hello.ok, hello.output, hello.error));
    auto enc = codec->Transcode("b64enc", "b64", "failure oblivious");
    snap.responses.push_back(Digest(enc.ok, enc.output, enc.error));
    auto back = codec->Transcode("u8to7", "utf8", MakeMuttBenignFolderName());
    snap.responses.push_back(Digest(back.ok, back.output, back.error));
    subsequent_ok = hello.ok && hello.output == *Utf7ToUtf8("Hello&AOk-!") && enc.ok &&
                    enc.output == Base64Encode("failure oblivious") && back.ok &&
                    back.output == *Utf8ToUtf7(MakeMuttBenignFolderName());
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(codec != nullptr ? &codec->memory().log() : nullptr, snap);
  return snap;
}

RunSnapshot LegacyRun(Server server, const PolicySpec& spec) {
  switch (server) {
    case Server::kPine:
      return LegacyPine(spec);
    case Server::kApache:
      return LegacyApache(spec);
    case Server::kSendmail:
      return LegacySendmail(spec);
    case Server::kMc:
      return LegacyMc(spec);
    case Server::kMutt:
      return LegacyMutt(spec);
    case Server::kArchive:
      return LegacyArchive(spec);
    case Server::kCodec:
      return LegacyCodec(spec);
  }
  return {};
}

// ---- The adapter-driven run ------------------------------------------------

// Converts one ServerResponse to the digest the matching legacy op
// produced: index/session-style ops digest their lines, GETs their status +
// body, everything else (ok, display, error).
std::string ResponseDigest(Server server, const ServerRequest& request,
                           const ServerResponse& response) {
  if (request.op == "index" || request.op == "session") {
    return Join(response.lines);
  }
  if (request.op == "get") {
    return std::to_string(response.status) + "|" + response.body;
  }
  if (request.op == "browse") {
    return Digest(response.ok, Join(response.lines), response.error);
  }
  if (request.op == "mktree") {
    return response.body;
  }
  (void)server;
  return Digest(response.ok, response.body, response.error);
}

RunSnapshot AdapterRun(Server server, const PolicySpec& spec) {
  RunSnapshot snap;
  TrafficStream stream = MakeAttackStream(server);
  std::unique_ptr<ServerApp> app;
  bool output_acceptable = true;
  bool subsequent_ok = true;
  RunResult result = RunAsProcess([&] {
    app = MakeAttackServer(server, spec);
    app->memory().set_access_budget(kHangBudget);
    for (const ServerRequest& request : stream.requests) {
      ServerResponse response = app->Handle(request);
      if (request.op != "wakeup") {  // the legacy glue logged no wakeup output
        snap.responses.push_back(ResponseDigest(server, request, response));
      }
      if (request.tag == RequestTag::kAttack) {
        output_acceptable = output_acceptable && response.acceptable;
      } else if (request.tag == RequestTag::kLegit) {
        subsequent_ok = subsequent_ok && response.acceptable;
      }
    }
  });
  snap.outcome = ClassifyOutcome(result, output_acceptable);
  snap.subsequent_ok = result.ok() && subsequent_ok;
  SnapshotLog(app != nullptr ? &app->memory().log() : nullptr, snap);
  return snap;
}

// ---- The property ----------------------------------------------------------

class SessionEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Server, AccessPolicy>> {};

std::string ParamName(const ::testing::TestParamInfo<std::tuple<Server, AccessPolicy>>& info) {
  std::string name = std::string(ServerName(std::get<0>(info.param))) +
                     PolicyName(std::get<1>(info.param));
  std::string cleaned;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cleaned.push_back(c);
    }
  }
  return cleaned;
}

INSTANTIATE_TEST_SUITE_P(AllServersAllPolicies, SessionEquivalenceTest,
                         ::testing::Combine(::testing::ValuesIn(kAllServers),
                                            ::testing::ValuesIn(kAllPolicies)),
                         ParamName);

TEST_P(SessionEquivalenceTest, AdapterMatchesLegacyDirectCalls) {
  auto [server, policy] = GetParam();
  RunSnapshot legacy = LegacyRun(server, policy);
  RunSnapshot adapter = AdapterRun(server, policy);

  EXPECT_EQ(adapter.outcome, legacy.outcome)
      << OutcomeName(adapter.outcome) << " vs " << OutcomeName(legacy.outcome);
  EXPECT_EQ(adapter.subsequent_ok, legacy.subsequent_ok);
  // Memlog contents: total, per-site aggregation, and the bounded ring of
  // recent records — identical means the adapter performed the exact same
  // sequence of invalid accesses.
  EXPECT_EQ(adapter.total_errors, legacy.total_errors);
  EXPECT_EQ(adapter.sites, legacy.sites);
  EXPECT_EQ(adapter.recent, legacy.recent);
  // Every response the user-visible surface produced, byte for byte.
  EXPECT_EQ(adapter.responses, legacy.responses);
}

// The report-level API agrees with the legacy classification too.
TEST_P(SessionEquivalenceTest, ReportMatchesLegacyClassification) {
  auto [server, policy] = GetParam();
  RunSnapshot legacy = LegacyRun(server, policy);
  AttackReport report = RunAttackExperiment(server, policy);
  EXPECT_EQ(report.outcome, legacy.outcome);
  EXPECT_EQ(report.subsequent_requests_ok, legacy.subsequent_ok);
  EXPECT_EQ(report.memory_errors_logged, legacy.total_errors);
}

}  // namespace
}  // namespace fob
