// The serving substrate: LineChannel close/EOF semantics, ServerRequest/
// ServerResponse wire serialization, and the Frontend's multiplexed,
// batched dispatch onto a WorkerPool — including the crash path (failed
// request answered with an error, batch remainder re-queued onto the
// replacement worker), the persistent lane executor (threads started once,
// zero churn per pump, clean drain on destruction), plan-based work
// stealing (per-client response order and determinism preserved), and the
// overload watermark (explicit kOverloadedStatus shed, crash-requeued work
// exempt).

#include "src/net/frontend.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/workloads.h"
#include "src/net/channel.h"

namespace fob {
namespace {

// ---- LineChannel close/EOF --------------------------------------------------

TEST(LineChannelEofTest, ReceiveDistinguishesNoInputFromClosed) {
  LineChannel channel;
  EXPECT_EQ(channel.ServerReceiveLine().status, LineChannel::RecvStatus::kNoInput);
  channel.ClientSend("hello");
  channel.ClientClose();
  // Queued lines drain before EOF is reported.
  LineChannel::Recv recv = channel.ServerReceiveLine();
  ASSERT_TRUE(recv.has_line());
  EXPECT_EQ(recv.line, "hello");
  EXPECT_EQ(channel.ServerReceiveLine().status, LineChannel::RecvStatus::kClosed);
  EXPECT_TRUE(channel.ServerAtEof());
}

TEST(LineChannelEofTest, SendAfterCloseIsDropped) {
  LineChannel channel;
  channel.ClientClose();
  channel.ClientSend("too late");
  EXPECT_FALSE(channel.ServerHasInput());
  EXPECT_TRUE(channel.ServerAtEof());
}

TEST(LineChannelEofTest, ServerSideCloseMirrors) {
  LineChannel channel;
  channel.ServerSend("bye");
  channel.ServerClose();
  EXPECT_EQ(channel.ClientReceiveLine().line, "bye");
  EXPECT_TRUE(channel.ClientReceiveLine().closed());
  EXPECT_TRUE(channel.ClientAtEof());
}

// ---- Wire serialization -----------------------------------------------------

TEST(ServerWireTest, RequestRoundTripsThroughOneLine) {
  ServerRequest request;
  request.tag = RequestTag::kAttack;
  request.client_id = 42;
  request.op = "browse";
  request.target = "/a\tb";  // field separator must be escaped
  request.arg = "x%y";
  request.arg2 = "z";
  request.lines = {"HELO one", "MAIL FROM:<a@b>"};
  request.payload = std::string("\x1f\x8b\x00\xff binary", 12);
  request.expect = "6";

  std::string line = request.Serialize();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto back = ServerRequest::Deserialize(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tag, request.tag);
  EXPECT_EQ(back->client_id, request.client_id);
  EXPECT_EQ(back->op, request.op);
  EXPECT_EQ(back->target, request.target);
  EXPECT_EQ(back->arg, request.arg);
  EXPECT_EQ(back->arg2, request.arg2);
  EXPECT_EQ(back->lines, request.lines);
  EXPECT_EQ(back->payload, request.payload);
  EXPECT_EQ(back->expect, request.expect);
}

TEST(ServerWireTest, ResponseRoundTripsThroughOneLine) {
  ServerResponse response;
  response.ok = true;
  response.acceptable = true;
  response.status = 200;
  response.body = "<html>\npage\n</html>";
  response.error = "";
  response.lines = {"220 ready", "221 bye"};

  auto back = ServerResponse::Deserialize(response.Serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ok, response.ok);
  EXPECT_EQ(back->acceptable, response.acceptable);
  EXPECT_EQ(back->status, response.status);
  EXPECT_EQ(back->body, response.body);
  EXPECT_EQ(back->lines, response.lines);
}

TEST(ServerWireTest, MalformedLinesAreRejected) {
  EXPECT_FALSE(ServerRequest::Deserialize("").has_value());
  EXPECT_FALSE(ServerRequest::Deserialize("RSP\t1").has_value());
  EXPECT_FALSE(ServerRequest::Deserialize("REQ\t9\t0\tget").has_value());
  EXPECT_FALSE(ServerResponse::Deserialize("REQ\t0\t0\t0\t\t\t").has_value());
}

// A valid request line with one field replaced: `index` counts from the
// "REQ" tag field (0) to `expect` (9).
std::string RequestLineWith(size_t index, const std::string& value) {
  std::vector<std::string> fields = {"REQ", "0", "7", "get", "/index.html", "", "", "", "", ""};
  fields.at(index) = value;
  std::string line = fields[0];
  for (size_t i = 1; i < fields.size(); ++i) {
    line += '\t';
    line += fields[i];
  }
  return line;
}

// Every line in this list must be rejected by the decoder, and by a
// Frontend lane with a "malformed request line" answer.
std::vector<std::string> MalformedRequestLines() {
  std::vector<std::string> lines = {
      "not a request",
      RequestLineWith(0, "RSP"),
      RequestLineWith(9, "x\textra"),  // an eleventh field
      // Tags: digits only, no sign, space, leading zero or trailing byte,
      // and within the RequestTag range.
      RequestLineWith(1, ""),
      RequestLineWith(1, "1x"),
      RequestLineWith(1, " 1"),
      RequestLineWith(1, "1 "),
      RequestLineWith(1, "+1"),
      RequestLineWith(1, "-0"),
      RequestLineWith(1, "01"),
      RequestLineWith(1, "3"),
      RequestLineWith(1, "4294967296"),
      // Client ids: the same rules, and no overflow past 2^64 - 1 ("-1"
      // used to parse as 2^64 - 1).
      RequestLineWith(2, ""),
      RequestLineWith(2, "+7"),
      RequestLineWith(2, "-1"),
      RequestLineWith(2, " 7"),
      RequestLineWith(2, "7x"),
      RequestLineWith(2, "07"),
      RequestLineWith(2, "18446744073709551616"),
      RequestLineWith(2, "99999999999999999999999"),
  };
  // A '%' without two hex digits after it: at the end of the line (the last
  // field), at the end of a field mid-line, and in the middle of a field.
  for (const char* bad : {"%", "%4", "%G1"}) {
    lines.push_back(RequestLineWith(9, bad));
    lines.push_back(RequestLineWith(4, bad));
    lines.push_back(RequestLineWith(4, "/a" + std::string(bad) + "zz/b"));
  }
  return lines;
}

TEST(ServerWireTest, MalformedRequestFieldsAreRejected) {
  ASSERT_TRUE(ServerRequest::Deserialize(RequestLineWith(0, "REQ")).has_value());
  for (const std::string& line : MalformedRequestLines()) {
    EXPECT_FALSE(ServerRequest::Deserialize(line).has_value()) << line;
  }
}

TEST(ServerWireTest, CanonicalNumbersAtTheirLimitsAreAccepted) {
  for (const char* tag : {"0", "1", "2"}) {
    auto request = ServerRequest::Deserialize(RequestLineWith(1, tag));
    ASSERT_TRUE(request.has_value()) << tag;
    EXPECT_EQ(request->Serialize(), RequestLineWith(1, tag));
  }
  for (const char* id : {"0", "18446744073709551615"}) {
    auto request = ServerRequest::Deserialize(RequestLineWith(2, id));
    ASSERT_TRUE(request.has_value()) << id;
    EXPECT_EQ(request->Serialize(), RequestLineWith(2, id));
  }
  EXPECT_FALSE(ServerResponse::Deserialize("RSP\t2\t0\t200\t\t\t").has_value());
  EXPECT_FALSE(ServerResponse::Deserialize("RSP\t1\t1\t-1\t\t\t").has_value());
  EXPECT_FALSE(ServerResponse::Deserialize("RSP\t1\t1\t2147483648\t\t\t").has_value());
  EXPECT_TRUE(ServerResponse::Deserialize("RSP\t1\t1\t2147483647\t\t\t").has_value());
}

// Every byte value 0-255 through every string field, both ways: the
// decoded request equals the original, and re-encoding the decoded request
// gives back the same line.
TEST(ServerWireTest, EveryByteValueRoundTripsThroughEveryField) {
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) {
    all_bytes.push_back(static_cast<char>(c));
  }
  std::vector<std::string> values = {all_bytes};
  for (char c : all_bytes) {
    values.emplace_back(1, c);
  }
  for (const std::string& value : values) {
    for (int field = 0; field < 7; ++field) {
      ServerRequest request;
      request.tag = RequestTag::kMaintenance;
      request.client_id = 18446744073709551615ull;
      std::string* slots[] = {&request.op,  &request.target,  &request.arg, &request.arg2,
                              nullptr,      &request.payload, &request.expect};
      if (slots[field] != nullptr) {
        *slots[field] = value;
      } else if (value != "\n") {
        // A '\n' separates lines, so the joined field splits there.
        size_t nl = value.find('\n');
        request.lines = nl == std::string::npos
                            ? std::vector<std::string>{value}
                            : std::vector<std::string>{value.substr(0, nl), value.substr(nl + 1)};
      }
      const std::string line = request.Serialize();
      ASSERT_EQ(line.find('\n'), std::string::npos);
      std::optional<ServerRequest> back = ServerRequest::Deserialize(line);
      ASSERT_TRUE(back.has_value()) << "field " << field;
      EXPECT_EQ(back->tag, request.tag);
      EXPECT_EQ(back->client_id, request.client_id);
      EXPECT_EQ(back->op, request.op);
      EXPECT_EQ(back->target, request.target);
      EXPECT_EQ(back->arg, request.arg);
      EXPECT_EQ(back->arg2, request.arg2);
      EXPECT_EQ(back->lines, request.lines) << "field " << field;
      EXPECT_EQ(back->payload, request.payload);
      EXPECT_EQ(back->expect, request.expect);
      EXPECT_EQ(back->Serialize(), line);
    }
    for (int field = 0; field < 3; ++field) {
      ServerResponse response;
      response.ok = field != 1;
      response.acceptable = field != 2;
      response.status = 553;
      std::string* slots[] = {&response.body, &response.error, nullptr};
      if (slots[field] != nullptr) {
        *slots[field] = value;
      } else if (value.find('\n') == std::string::npos) {
        response.lines = {value, value};
      }
      const std::string line = response.Serialize();
      ASSERT_EQ(line.find('\n'), std::string::npos);
      std::optional<ServerResponse> back = ServerResponse::Deserialize(line);
      ASSERT_TRUE(back.has_value()) << "field " << field;
      EXPECT_EQ(back->ok, response.ok);
      EXPECT_EQ(back->acceptable, response.acceptable);
      EXPECT_EQ(back->status, response.status);
      EXPECT_EQ(back->body, response.body);
      EXPECT_EQ(back->error, response.error);
      EXPECT_EQ(back->lines, response.lines);
      EXPECT_EQ(back->Serialize(), line);
    }
  }
}

// ---- Frontend ----------------------------------------------------------------

ServerRequest Get(const std::string& path, RequestTag tag = RequestTag::kLegit) {
  return MakeRequest(tag, "get", path);
}

Frontend::Factory ApacheFactory(AccessPolicy policy) {
  return [policy] { return MakeServerApp(Server::kApache, policy); };
}

TEST(FrontendTest, MultiplexesInterleavedClientsOntoThePool) {
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 2, .batch = 3});
  LineChannel& a = frontend.Connect(1);
  LineChannel& b = frontend.Connect(2);
  LineChannel& c = frontend.Connect(3);
  a.ClientSend(Get("/index.html").Serialize());
  b.ClientSend(Get("/docs/flexc.html").Serialize());
  a.ClientSend(Get("/index.html").Serialize());
  c.ClientSend(Get("/files/big.bin").Serialize());
  a.ClientClose();
  b.ClientClose();
  c.ClientClose();

  EXPECT_EQ(frontend.Run(), 4u);
  EXPECT_TRUE(frontend.Idle());

  // Each client got exactly its own responses, in order.
  std::vector<std::string> a_lines = a.ClientReceiveAll();
  ASSERT_EQ(a_lines.size(), 2u);
  for (const std::string& line : a_lines) {
    auto response = ServerResponse::Deserialize(line);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_NE(response->body.find("research project"), std::string::npos);
  }
  auto b_response = ServerResponse::Deserialize(b.ClientReceiveAll().at(0));
  ASSERT_TRUE(b_response.has_value());
  EXPECT_NE(b_response->body.find("docs"), std::string::npos);
  auto c_response = ServerResponse::Deserialize(c.ClientReceiveAll().at(0));
  ASSERT_TRUE(c_response.has_value());
  EXPECT_EQ(c_response->body.size(), 830 * 1024u);
  EXPECT_EQ(frontend.restarts(), 0u);
}

TEST(FrontendTest, CrashMidBatchRequeuesTheRemainder) {
  // Standard compilation: the attack GET smashes the worker's stack. The
  // fair ingest sweep interleaves the two clients, so the batch is
  // [victim:index, bystander:index, victim:attack, bystander:docs]: the two
  // requests before the attack keep their responses, the attack request is
  // answered with an error, and the one behind it is re-queued onto the
  // replacement worker.
  Frontend frontend(ApacheFactory(AccessPolicy::kStandard),
                    Frontend::Options{.workers = 1, .batch = 4});
  LineChannel& victim = frontend.Connect(1);
  LineChannel& bystander = frontend.Connect(2);
  victim.ClientSend(Get("/index.html").Serialize());
  victim.ClientSend(Get(MakeApacheAttackUrl(), RequestTag::kAttack).Serialize());
  bystander.ClientSend(Get("/index.html").Serialize());
  bystander.ClientSend(Get("/docs/flexc.html").Serialize());
  victim.ClientClose();
  bystander.ClientClose();

  EXPECT_EQ(frontend.Run(), 4u);  // every request got *some* response
  EXPECT_EQ(frontend.stats().failed, 1u);
  EXPECT_EQ(frontend.stats().requeued, 1u);
  EXPECT_EQ(frontend.stats().batches, 2u);  // crashed batch + re-queued remainder
  EXPECT_EQ(frontend.restarts(), 1u);

  std::vector<std::string> victim_lines = victim.ClientReceiveAll();
  ASSERT_EQ(victim_lines.size(), 2u);
  EXPECT_EQ(ServerResponse::Deserialize(victim_lines[0])->status, 200);
  auto crash_response = ServerResponse::Deserialize(victim_lines[1]);
  EXPECT_EQ(crash_response->status, 500);
  EXPECT_NE(crash_response->error.find("worker crashed"), std::string::npos);

  // The bystander's requests — behind the attack in the same batch — were
  // re-queued and served by the replacement worker.
  std::vector<std::string> bystander_lines = bystander.ClientReceiveAll();
  ASSERT_EQ(bystander_lines.size(), 2u);
  EXPECT_EQ(ServerResponse::Deserialize(bystander_lines[0])->status, 200);
  EXPECT_EQ(ServerResponse::Deserialize(bystander_lines[1])->status, 200);
}

TEST(FrontendTest, FailureObliviousPoolAbsorbsTheSameMixWithoutRestarts) {
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 1, .batch = 4});
  LineChannel& client = frontend.Connect(1);
  client.ClientSend(Get("/index.html").Serialize());
  client.ClientSend(Get(MakeApacheAttackUrl(), RequestTag::kAttack).Serialize());
  client.ClientSend(Get("/index.html").Serialize());
  client.ClientClose();

  EXPECT_EQ(frontend.Run(), 3u);
  EXPECT_EQ(frontend.restarts(), 0u);
  EXPECT_EQ(frontend.stats().failed, 0u);
  for (const std::string& line : client.ClientReceiveAll()) {
    EXPECT_EQ(ServerResponse::Deserialize(line)->status, 200);
  }
}

TEST(FrontendTest, BatchSizeOneDegeneratesToPerRequestDispatch) {
  Frontend frontend(ApacheFactory(AccessPolicy::kStandard),
                    Frontend::Options{.workers = 2, .batch = 1});
  LineChannel& client = frontend.Connect(7);
  for (int i = 0; i < 3; ++i) {
    client.ClientSend(Get(MakeApacheAttackUrl(), RequestTag::kAttack).Serialize());
    client.ClientSend(Get("/index.html").Serialize());
  }
  client.ClientClose();
  EXPECT_EQ(frontend.Run(), 6u);
  // Per-request batches: every attack kills exactly one worker, nothing is
  // ever re-queued.
  EXPECT_EQ(frontend.restarts(), 3u);
  EXPECT_EQ(frontend.stats().failed, 3u);
  EXPECT_EQ(frontend.stats().requeued, 0u);
}

TEST(FrontendTest, SessionAffinityRoutesAClientToOneStickyWorkerShard) {
  // Steal off: this test pins *sticky-only* routing — with stealing, an
  // over-backlogged client's batches may legitimately run on idle shards.
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 4, .batch = 2, .steal = false});
  // First-seen round robin: clients bind to lanes in connection order, and
  // the binding never changes while the client stays open.
  LineChannel& a = frontend.Connect(10);
  LineChannel& b = frontend.Connect(20);
  size_t lane_a = frontend.LaneOf(10);
  size_t lane_b = frontend.LaneOf(20);
  EXPECT_NE(lane_a, lane_b);
  EXPECT_EQ(frontend.affinity_size(), 2u);

  // Client A's requests include attacks; client B's are clean. After a
  // parallel run, every one of A's error records must sit in A's sticky
  // shard and B's shard must be clean — the requests never migrated.
  for (int i = 0; i < 3; ++i) {
    a.ClientSend(Get(MakeApacheAttackUrl(), RequestTag::kAttack).Serialize());
    a.ClientSend(Get("/index.html").Serialize());
    b.ClientSend(Get("/index.html").Serialize());
  }
  a.ClientClose();
  b.ClientClose();
  EXPECT_EQ(frontend.Run(), 9u);
  EXPECT_GT(frontend.pool().worker(lane_a).memory().log().total_errors(), 0u);
  EXPECT_EQ(frontend.pool().worker(lane_b).memory().log().total_errors(), 0u);
  // The merged view still sees everything, in shard-id order.
  EXPECT_EQ(frontend.MergedLog().total_errors(),
            frontend.pool().worker(lane_a).memory().log().total_errors());
  // Both channels reached EOF during the run, so their affinity entries were
  // evicted — a long-lived frontend does not leak one entry per client ever
  // seen.
  EXPECT_EQ(frontend.affinity_size(), 0u);
}

TEST(FrontendTest, AffinityEntriesEvictWhenAClientDrainsToEof) {
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 2, .batch = 4});
  LineChannel& gone = frontend.Connect(1);
  LineChannel& open = frontend.Connect(2);
  gone.ClientSend(Get("/index.html").Serialize());
  open.ClientSend(Get("/index.html").Serialize());
  gone.ClientClose();  // at EOF once its one request drains
  EXPECT_EQ(frontend.Pump(), 2u);
  // The closed-and-drained client's lane binding is gone; the open one's
  // survives the pump (it may still send).
  EXPECT_EQ(frontend.affinity_size(), 1u);
  size_t open_lane = frontend.LaneOf(2);
  open.ClientSend(Get("/index.html").Serialize());
  EXPECT_EQ(frontend.Pump(), 1u);
  EXPECT_EQ(frontend.LaneOf(2), open_lane);  // binding stayed stable
}

TEST(FrontendTest, NewClientsBindToTheLeastLoadedLane) {
  // Steal off so lane load is exactly sticky backlog. Clients 1 and 2 bind
  // round-robin to lanes 0 and 1 (all depths equal), wrapping the cursor
  // back to lane 0. Mid-partition, client 3 arrives while client 1 has a
  // deep backlog on lane 0 — blind round robin would hand client 3 the
  // cursor's lane 0; least-loaded binds it to idle lane 1.
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 2, .batch = 8, .steal = false});
  LineChannel& hot = frontend.Connect(1);
  frontend.Connect(2);
  EXPECT_EQ(frontend.LaneOf(1), 0u);
  EXPECT_EQ(frontend.LaneOf(2), 1u);

  for (int i = 0; i < 6; ++i) {
    hot.ClientSend(Get("/index.html").Serialize());
  }
  LineChannel& late = frontend.Connect(3);
  late.ClientSend(Get("/index.html").Serialize());
  EXPECT_EQ(frontend.Pump(), 7u);
  // Client 3 bound during the pump's partition, when lane 0 already held
  // client 1's backlog and lane 1 was empty (client 2 sent nothing).
  EXPECT_EQ(frontend.LaneOf(3), 1u);
  EXPECT_EQ(frontend.LaneOf(1), 0u);
}

TEST(FrontendTest, PersistentExecutorStartsThreadsOnceNotPerPump) {
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 4, .batch = 2});
  // All lane threads exist from construction...
  EXPECT_EQ(frontend.executor_threads_started(), 4u);
  std::vector<LineChannel*> channels;
  for (uint64_t client = 1; client <= 4; ++client) {
    channels.push_back(&frontend.Connect(client));
  }
  // ...and five multi-lane pumps later the lifetime creation count has not
  // moved: steady-state pumps are zero-thread-churn.
  for (int pump = 0; pump < 5; ++pump) {
    for (LineChannel* channel : channels) {
      channel->ClientSend(Get("/index.html").Serialize());
    }
    EXPECT_EQ(frontend.Pump(), channels.size());
    EXPECT_EQ(frontend.executor_threads_started(), 4u);
  }
}

TEST(FrontendTest, LegacyDispatchForksPerPumpAndStartsNoExecutor) {
  Frontend frontend(
      ApacheFactory(AccessPolicy::kFailureOblivious),
      Frontend::Options{.workers = 3, .batch = 2, .legacy_dispatch = true});
  EXPECT_EQ(frontend.executor_threads_started(), 0u);
  for (uint64_t client = 1; client <= 3; ++client) {
    LineChannel& channel = frontend.Connect(client);
    channel.ClientSend(Get("/index.html").Serialize());
    channel.ClientSend(Get("/docs/flexc.html").Serialize());
    channel.ClientClose();
  }
  EXPECT_EQ(frontend.Run(), 6u);
  for (uint64_t client = 1; client <= 3; ++client) {
    for (const std::string& line : frontend.Connect(client).ClientReceiveAll()) {
      EXPECT_EQ(ServerResponse::Deserialize(line)->status, 200);
    }
  }
}

TEST(FrontendTest, ExecutorDrainsCleanlyOnDestruction) {
  // Construct, serve multi-lane rounds, destroy — repeatedly. The executor
  // must park, stop, and join all lane threads with no round in flight;
  // the tsan job keeps this honest.
  for (int round = 0; round < 3; ++round) {
    Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                      Frontend::Options{.workers = 4, .batch = 2});
    for (uint64_t client = 1; client <= 4; ++client) {
      LineChannel& channel = frontend.Connect(client);
      channel.ClientSend(Get("/index.html").Serialize());
      channel.ClientClose();
    }
    EXPECT_EQ(frontend.Run(), 4u);
  }
}

TEST(FrontendTest, StealingPreservesPerClientOrderingAndResponses) {
  // One hot client on lane 0, three idle lanes: the steal plan must move
  // whole batches to lanes 1-3 (the imbalance the sticky-only frontend
  // serializes), yet the client still reads its responses in exactly the
  // order it sent the requests, byte-identical to a sticky-only run.
  const std::vector<std::string> paths = {"/index.html", "/files/big.bin",
                                          "/docs/flexc.html"};
  auto run = [&](bool steal) {
    Frontend frontend(
        ApacheFactory(AccessPolicy::kFailureOblivious),
        Frontend::Options{.workers = 4, .batch = 2, .steal = steal});
    LineChannel& hot = frontend.Connect(1);
    for (int i = 0; i < 12; ++i) {
      hot.ClientSend(Get(paths[i % paths.size()]).Serialize());
    }
    hot.ClientClose();
    EXPECT_EQ(frontend.Run(), 12u);
    return std::make_pair(hot.ClientReceiveAll(), frontend.stats().stolen_batches);
  };

  auto [stolen_lines, stolen_count] = run(/*steal=*/true);
  auto [sticky_lines, sticky_count] = run(/*steal=*/false);
  EXPECT_GT(stolen_count, 0u);
  EXPECT_EQ(sticky_count, 0u);
  // Responses in submission order, with the right body per request...
  ASSERT_EQ(stolen_lines.size(), 12u);
  for (size_t i = 0; i < stolen_lines.size(); ++i) {
    auto response = ServerResponse::Deserialize(stolen_lines[i]);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    if (paths[i % paths.size()] == "/files/big.bin") {
      EXPECT_EQ(response->body.size(), 830 * 1024u);
    }
  }
  // ...and byte-identical to the sticky-only run: stealing changed which
  // shard served each batch, not what any client observed.
  EXPECT_EQ(stolen_lines, sticky_lines);
}

TEST(FrontendTest, SheddingPastTheWatermarkIsExplicitAndDeterministic) {
  auto run = [] {
    Frontend frontend(
        ApacheFactory(AccessPolicy::kFailureOblivious),
        Frontend::Options{.workers = 1, .batch = 2, .shed_watermark = 3});
    LineChannel& client = frontend.Connect(1);
    for (int i = 0; i < 5; ++i) {
      client.ClientSend(Get("/index.html").Serialize());
    }
    client.ClientClose();
    EXPECT_EQ(frontend.Run(), 5u);  // every request answered — 200 or 503
    EXPECT_EQ(frontend.stats().shed, 2u);
    EXPECT_EQ(frontend.stats().max_lane_depth, 3u);
    MemLog merged = frontend.MergedLog();
    EXPECT_EQ(merged.shed_requests(), 2u);
    EXPECT_EQ(merged.peak_lane_depth(), 3u);
    EXPECT_NE(merged.Summary().find("2 requests shed"), std::string::npos);
    return client.ClientReceiveAll();
  };

  std::vector<std::string> lines = run();
  ASSERT_EQ(lines.size(), 5u);
  // The first three (up to the watermark) served; the overflow answered
  // with the explicit overload status, never silently queued — and in
  // submission order, after the accepted requests' responses.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ServerResponse::Deserialize(lines[i])->status, 200);
  }
  for (size_t i = 3; i < 5; ++i) {
    auto response = ServerResponse::Deserialize(lines[i]);
    EXPECT_EQ(response->status, Frontend::kOverloadedStatus);
    EXPECT_NE(response->error.find("overloaded"), std::string::npos);
  }
  // Deterministic: an identical stream sheds identically.
  EXPECT_EQ(run(), lines);
}

TEST(FrontendTest, SheddingExemptsCrashRequeuedWork) {
  // Standard policy: the attack crashes the worker with two requests still
  // behind it in the batch. Those crash remainders re-queue onto the
  // replacement even though the lane is at its watermark — recovery work is
  // never shed; only the fresh over-watermark request is.
  Frontend frontend(
      ApacheFactory(AccessPolicy::kStandard),
      Frontend::Options{.workers = 1, .batch = 4, .shed_watermark = 3});
  LineChannel& client = frontend.Connect(1);
  client.ClientSend(Get(MakeApacheAttackUrl(), RequestTag::kAttack).Serialize());
  for (int i = 0; i < 3; ++i) {
    client.ClientSend(Get("/index.html").Serialize());
  }
  client.ClientClose();
  EXPECT_EQ(frontend.Run(), 4u);
  EXPECT_EQ(frontend.restarts(), 1u);
  EXPECT_EQ(frontend.stats().failed, 1u);
  EXPECT_EQ(frontend.stats().requeued, 2u);  // served by the replacement
  EXPECT_EQ(frontend.stats().shed, 1u);      // only the 4th, fresh, request

  std::vector<std::string> lines = client.ClientReceiveAll();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(ServerResponse::Deserialize(lines[0])->status, 500);  // the attack
  EXPECT_EQ(ServerResponse::Deserialize(lines[1])->status, 200);  // requeued
  EXPECT_EQ(ServerResponse::Deserialize(lines[2])->status, 200);  // requeued
  EXPECT_EQ(ServerResponse::Deserialize(lines[3])->status,
            Frontend::kOverloadedStatus);
}

TEST(FrontendTest, PerClientOrderingIsPreservedUnderParallelDispatch) {
  // Three clients fan out over distinct lanes and are served concurrently;
  // each client must still see its own responses in exactly the order it
  // sent the requests (distinguishable by body size / content).
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 3, .batch = 2});
  struct Want {
    uint64_t client;
    std::string path;
  };
  std::vector<Want> sends;
  for (int round = 0; round < 3; ++round) {
    sends.push_back({1, "/index.html"});
    sends.push_back({2, "/files/big.bin"});
    sends.push_back({3, "/docs/flexc.html"});
    sends.push_back({1, "/docs/flexc.html"});
  }
  for (const Want& want : sends) {
    frontend.Connect(want.client).ClientSend(Get(want.path).Serialize());
  }
  for (uint64_t client : {1u, 2u, 3u}) {
    frontend.Connect(client).ClientClose();
  }
  EXPECT_EQ(frontend.Run(), sends.size());

  std::map<uint64_t, std::vector<std::string>> received;
  for (uint64_t client : {1u, 2u, 3u}) {
    received[client] = frontend.Connect(client).ClientReceiveAll();
  }
  std::map<uint64_t, size_t> cursor;
  for (const Want& want : sends) {
    auto response = ServerResponse::Deserialize(received[want.client].at(cursor[want.client]++));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    if (want.path == "/files/big.bin") {
      EXPECT_EQ(response->body.size(), 830 * 1024u);
    } else if (want.path == "/docs/flexc.html") {
      EXPECT_NE(response->body.find("docs"), std::string::npos);
    } else {
      EXPECT_NE(response->body.find("research project"), std::string::npos);
    }
  }
}

TEST(FrontendTest, MalformedLineGetsAnErrorResponse) {
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 1, .batch = 2});
  LineChannel& client = frontend.Connect(1);
  client.ClientSend("not a request");
  client.ClientClose();
  EXPECT_EQ(frontend.Run(), 1u);
  EXPECT_EQ(frontend.stats().rejected, 1u);
  auto response = ServerResponse::Deserialize(client.ClientReceiveAll().at(0));
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error.find("malformed"), std::string::npos);
}

// A malformed line is answered by the lane its client is bound to, in the
// same seq-ordered write as the client's other responses: a reject never
// overtakes a request the client sent before it.
TEST(FrontendTest, MalformedLineAnsweredInSubmissionOrder) {
  Frontend frontend([] { return MakeServerApp(Server::kMc, AccessPolicy::kFailureOblivious); },
                    Frontend::Options{.workers = 2, .batch = 2});
  ServerRequest browse = MakeRequest(RequestTag::kLegit, "browse");
  browse.payload = MakeMcBenignTgz();
  LineChannel& first = frontend.Connect(1);
  LineChannel& second = frontend.Connect(2);
  first.ClientSend(browse.Serialize());
  second.ClientSend(browse.Serialize());
  first.ClientSend("not a request");
  first.ClientSend(browse.Serialize());
  first.ClientClose();
  second.ClientClose();
  EXPECT_EQ(frontend.Run(), 4u);
  EXPECT_EQ(frontend.stats().rejected, 1u);

  std::vector<std::string> lines = first.ClientReceiveAll();
  ASSERT_EQ(lines.size(), 3u);
  std::vector<ServerResponse> responses;
  for (const std::string& line : lines) {
    auto response = ServerResponse::Deserialize(line);
    ASSERT_TRUE(response.has_value()) << line;
    responses.push_back(*response);
  }
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[0].lines.empty());
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].error, "malformed request line");
  EXPECT_TRUE(responses[2].ok);
  EXPECT_EQ(responses[2].lines, responses[0].lines);

  std::vector<std::string> other = second.ClientReceiveAll();
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0], lines[0]);
}

// Every malformed variant the decoder rejects is rejected by a lane too,
// counted once each, and never reaches an app (no app sees a request, so
// no error is logged and no worker restarts).
TEST(FrontendTest, EveryMalformedLineIsRejectedByItsLane) {
  Frontend frontend(ApacheFactory(AccessPolicy::kFailureOblivious),
                    Frontend::Options{.workers = 2, .batch = 3});
  const std::vector<std::string> malformed = MalformedRequestLines();
  const std::string valid = Get("/index.html").Serialize();
  LineChannel& client = frontend.Connect(1);
  for (const std::string& line : malformed) {
    client.ClientSend(line);
    client.ClientSend(valid);
  }
  client.ClientClose();
  EXPECT_EQ(frontend.Run(), 2 * malformed.size());
  EXPECT_EQ(frontend.stats().rejected, malformed.size());
  EXPECT_EQ(frontend.restarts(), 0u);
  EXPECT_EQ(frontend.MergedLog().total_errors(), 0u);
  std::vector<std::string> lines = client.ClientReceiveAll();
  ASSERT_EQ(lines.size(), 2 * malformed.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    auto response = ServerResponse::Deserialize(lines[i]);
    ASSERT_TRUE(response.has_value());
    if (i % 2 == 0) {
      EXPECT_EQ(response->error, "malformed request line") << malformed[i / 2];
    } else {
      EXPECT_EQ(response->status, 200);
    }
  }
}

}  // namespace
}  // namespace fob
