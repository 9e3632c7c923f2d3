// The unified server-facing session API.
//
// Every mini-server in src/apps/ historically exposed a bespoke surface
// (`ApacheApp::Handle(HttpRequest)`, `SendmailApp::HandleSession(...)`,
// `MuttApp::OpenFolder(...)`, MC's per-operation calls), so each harness —
// the §4 experiment, the search-space sweep, the stability bench, the
// examples — carried its own per-server switch of request-construction
// glue. ServerApp replaces that: one value pair (ServerRequest in,
// ServerResponse out) and one interface every server implements through an
// adapter (src/apps/server_adapters.h), so any harness drives any server
// through the same code path.
//
// A request is *tagged* — attack, legitimate, or maintenance — because the
// paper's availability argument is about mixed traffic: the §4 outcome
// classification needs to know which responses count toward "the attack was
// absorbed acceptably" and which toward "subsequent legitimate requests
// still succeed". The adapter judges acceptability per request (it knows
// the §4 semantics: Sendmail's attack MAIL must be *rejected* with 553,
// Mutt's attack folder open must *fail* with the server's error, Apache's
// attack GET must still produce a well-formed response) and reports the
// verdict in ServerResponse::acceptable.
//
// Requests serialize to single lines, so a stream of them can travel over a
// LineChannel like any other wire traffic — that is what the Frontend
// (src/net/frontend.h) multiplexes onto a WorkerPool.

#ifndef SRC_APPS_SERVER_APP_H_
#define SRC_APPS_SERVER_APP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/memory.h"

namespace fob {

// The five servers of §4, plus the two post-paper additions that grow the
// matrix beyond the seed attacks: the archive inbox (tar/gzip upload over
// simulated memory, a gzip-1.2.4-style FNAME overflow) and the codec
// gateway (base64/utf7/utf8 transcoding, a Figure-1-style undersized decode
// buffer). Every harness that iterates kAllServers picks them up.
enum class Server { kPine, kApache, kSendmail, kMc, kMutt, kArchive, kCodec };
const char* ServerName(Server server);
// Lowercase CLI/directory token ("pine", ..., "archive", "codec") — what
// bench_sweep parses and the fuzz corpus uses as tests/corpus/<server>/.
const char* ServerShortName(Server server);
inline constexpr Server kAllServers[] = {Server::kPine,  Server::kApache, Server::kSendmail,
                                         Server::kMc,    Server::kMutt,   Server::kArchive,
                                         Server::kCodec};

// What role a request plays in the traffic mix.
enum class RequestTag : uint8_t {
  kLegit,        // a legitimate user request; must be served correctly
  kAttack,       // crafted to reach a memory error; must be absorbed
  kMaintenance,  // background work (daemon wakeups, workload setup)
};

const char* RequestTagName(RequestTag tag);

// One request in a server's wire vocabulary. `op` is the server verb
// ("get", "session", "browse", "open", ...); `target`/`arg`/`lines`/
// `payload` carry its operands. `expect` is an op-specific acceptance
// operand interpreted by the adapter (e.g. the index line count a Pine
// mailbox should produce) so workload knowledge stays in the stream, not in
// the server.
struct ServerRequest {
  RequestTag tag = RequestTag::kLegit;
  uint64_t client_id = 0;
  std::string op;
  std::string target;
  std::string arg;
  std::string arg2;
  std::vector<std::string> lines;  // payload lines (an SMTP session)
  std::string payload;             // raw bytes (a .tgz archive, a mail body)
  std::string expect;              // op-specific acceptance operand

  // One-line wire form (all fields percent-escaped) and its inverse, used
  // by the LineChannel transport. Serialize(Deserialize(x)) == x for every
  // line Serialize produces. Deserialize takes numbers only in canonical
  // decimal (ASCII digits, no sign, space, leading zero or overflow) and
  // rejects a '%' not followed by two hex digits; nullopt on any malformed
  // line, never throws.
  std::string Serialize() const;
  static std::optional<ServerRequest> Deserialize(std::string_view line);
};

// What the server answered. `ok` is the operation-level success as the
// server reports it; `acceptable` is the adapter's §4 availability verdict
// for this request (an attack folder open that *fails* with the server's
// standard error is not ok but is acceptable).
struct ServerResponse {
  bool ok = false;
  bool acceptable = false;
  int status = 0;          // numeric status where the protocol has one
  std::string body;        // rendered output (page body, pager view, ...)
  std::string error;       // the error line, if any
  std::vector<std::string> lines;  // multi-line output (SMTP dialogue, listing)

  // The same wire form; `status` travels as a non-negative decimal.
  std::string Serialize() const;
  static std::optional<ServerResponse> Deserialize(std::string_view line);
};

// The uniform session interface. BeginSession/EndSession bracket one
// client's interaction (stateless adapters keep the defaults); Handle
// processes one request; memory() exposes the simulated image for budgets
// and the error log — the outcome-relevant state probes the harness needs.
//
// Ownership under parallel serving: one worker = one ServerApp = one Memory
// = one Shard (src/runtime/shard.h). An adapter and its substrate (docroot,
// IMAP store) are private to its worker thread; nothing behind memory() is
// shared between two ServerApp instances, which is what lets the Frontend
// dispatch worker lanes concurrently with no locking.
class ServerApp {
 public:
  virtual ~ServerApp() = default;

  virtual void BeginSession(uint64_t client_id) { (void)client_id; }
  virtual ServerResponse Handle(const ServerRequest& request) = 0;
  virtual void EndSession(uint64_t client_id) { (void)client_id; }

  virtual Memory& memory() = 0;
};

}  // namespace fob

#endif  // SRC_APPS_SERVER_APP_H_
