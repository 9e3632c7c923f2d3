#include <gtest/gtest.h>

#include <string>

#include "src/codec/utf7.h"
#include "src/mail/message.h"
#include "src/net/channel.h"
#include "src/net/http.h"
#include "src/net/imap.h"
#include "src/net/smtp.h"
#include "src/runtime/memory.h"

namespace fob {
namespace {

// ---- LineChannel ----------------------------------------------------------

TEST(ChannelTest, ClientToServerFifo) {
  LineChannel channel;
  channel.ClientSend("one");
  channel.ClientSend("two");
  EXPECT_EQ(channel.ServerReceiveLine().line, "one");
  EXPECT_EQ(channel.ServerReceiveLine().line, "two");
  EXPECT_EQ(channel.ServerReceiveLine().status, LineChannel::RecvStatus::kNoInput);
}

TEST(ChannelTest, ServerToClient) {
  LineChannel channel;
  channel.ServerSend("220 ready");
  channel.ServerSend("250 ok");
  auto lines = channel.ClientReceiveAll();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "220 ready");
  EXPECT_EQ(lines[1], "250 ok");
}

// ---- HTTP ---------------------------------------------------------------

TEST(HttpTest, ParseRequestLine) {
  auto request = HttpRequest::Parse("GET /index.html HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/index.html");
  EXPECT_EQ(request->version, "HTTP/1.0");
}

TEST(HttpTest, ParseHeaders) {
  auto request =
      HttpRequest::Parse("GET / HTTP/1.0\r\nHost: example.org\r\nX-Test:  spaced \r\n\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->Header("host"), "example.org");  // case-insensitive
  EXPECT_EQ(request->Header("x-test"), "spaced");
  EXPECT_EQ(request->Header("missing"), "");
}

TEST(HttpTest, ParseRejectsMalformed) {
  EXPECT_FALSE(HttpRequest::Parse("").has_value());
  EXPECT_FALSE(HttpRequest::Parse("GET\r\n").has_value());
  EXPECT_FALSE(HttpRequest::Parse("GET /\r\n").has_value());
  EXPECT_FALSE(HttpRequest::Parse("GET / FTP/1.0\r\n").has_value());
}

TEST(HttpTest, SerializeParseRoundTrip) {
  HttpRequest request;
  request.method = "GET";
  request.path = "/a/b?q=1";
  request.headers.emplace_back("Host", "unit.test");
  auto reparsed = HttpRequest::Parse(request.Serialize());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->path, "/a/b?q=1");
  EXPECT_EQ(reparsed->Header("Host"), "unit.test");
}

TEST(HttpTest, ResponseHelpers) {
  HttpResponse ok = HttpResponse::Ok("<html>hi</html>");
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.Serialize().find("Content-Length: 15"), std::string::npos);
  HttpResponse nf = HttpResponse::NotFound("/missing");
  EXPECT_EQ(nf.status, 404);
  EXPECT_NE(nf.Serialize().find("404"), std::string::npos);
  EXPECT_EQ(HttpResponse::BadRequest("x").status, 400);
}

// ---- SMTP ---------------------------------------------------------------

TEST(SmtpTest, ParseCommandUppercasesVerb) {
  SmtpCommand c = ParseSmtpCommand("helo client.example");
  EXPECT_EQ(c.verb, "HELO");
  EXPECT_EQ(c.arg, "client.example");
}

TEST(SmtpTest, ParseMailFrom) {
  SmtpCommand c = ParseSmtpCommand("MAIL FROM:<user@example.org>");
  EXPECT_EQ(c.verb, "MAIL");
  EXPECT_EQ(c.arg, "FROM:<user@example.org>");
  EXPECT_EQ(ExtractAngleAddress(c.arg), "user@example.org");
}

TEST(SmtpTest, ExtractAddressEdgeCases) {
  EXPECT_EQ(ExtractAngleAddress("TO:<>"), "");
  EXPECT_FALSE(ExtractAngleAddress("TO:user@host").has_value());
  EXPECT_FALSE(ExtractAngleAddress("TO:<user@host").has_value());
}

TEST(SmtpTest, CommandWithNoArg) {
  SmtpCommand c = ParseSmtpCommand("DATA");
  EXPECT_EQ(c.verb, "DATA");
  EXPECT_TRUE(c.arg.empty());
  EXPECT_EQ(ParseSmtpCommand("QUIT\r").verb, "QUIT");
}

// ---- IMAP ---------------------------------------------------------------

TEST(ImapTest, SelectExistingFolder) {
  ImapServer imap;
  ASSERT_TRUE(imap.AddFolderUtf8("INBOX", {MailMessage::Make("a@b", "c@d", "hi", "body")}));
  auto result = imap.Select("INBOX");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.message_count, 1u);
}

TEST(ImapTest, SelectMissingFolderSaysNo) {
  ImapServer imap;
  imap.AddFolderUtf8("INBOX", {});
  auto result = imap.Select("Drafts");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.response.find("does not exist"), std::string::npos);
}

TEST(ImapTest, NonAsciiFolderStoredUnderUtf7Name) {
  ImapServer imap;
  std::string utf8 = "mail/\xe5\x8f\xb0\xe5\x8c\x97";  // mail/台北
  ASSERT_TRUE(imap.AddFolderUtf8(utf8, {}));
  std::string utf7 = *Utf8ToUtf7(utf8);
  EXPECT_TRUE(imap.Select(utf7).ok);
  EXPECT_FALSE(imap.Select(utf8).ok);  // raw UTF-8 is not the wire name
}

TEST(ImapTest, TruncatedUtf7NameDoesNotMatch) {
  // The Mutt scenario: failure-oblivious truncation produces a prefix of the
  // correct UTF-7 name, which the server correctly rejects.
  ImapServer imap;
  std::string utf8 = "folders/\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e";
  ASSERT_TRUE(imap.AddFolderUtf8(utf8, {}));
  std::string utf7 = *Utf8ToUtf7(utf8);
  std::string truncated = utf7.substr(0, utf7.size() / 2);
  auto result = imap.Select(truncated);
  EXPECT_FALSE(result.ok);
}

TEST(ImapTest, FetchMessages) {
  ImapServer imap;
  imap.AddFolderUtf8("INBOX", {MailMessage::Make("a@b", "x@y", "s1", "b1"),
                               MailMessage::Make("c@d", "x@y", "s2", "b2")});
  auto m = imap.Fetch("INBOX", 2);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->Subject(), "s2");
  EXPECT_FALSE(imap.Fetch("INBOX", 0).has_value());
  EXPECT_FALSE(imap.Fetch("INBOX", 3).has_value());
  EXPECT_FALSE(imap.Fetch("Nope", 1).has_value());
}

TEST(ImapTest, MoveMessageBetweenFolders) {
  ImapServer imap;
  imap.AddFolderUtf8("INBOX", {MailMessage::Make("a@b", "x@y", "move me", "")});
  imap.AddFolderUtf8("Archive", {});
  ASSERT_TRUE(imap.MoveMessage("INBOX", 1, "Archive"));
  EXPECT_EQ(imap.Select("INBOX").message_count, 0u);
  EXPECT_EQ(imap.Select("Archive").message_count, 1u);
  EXPECT_FALSE(imap.MoveMessage("INBOX", 1, "Archive"));  // now empty
}

TEST(ImapTest, AppendToFolder) {
  ImapServer imap;
  imap.AddFolderUtf8("Sent", {});
  EXPECT_TRUE(imap.Append("Sent", MailMessage::Make("me@here", "you@there", "s", "b")));
  EXPECT_FALSE(imap.Append("Ghost", MailMessage::Make("a", "b", "c", "d")));
  EXPECT_EQ(imap.Select("Sent").message_count, 1u);
}

TEST(HttpTest, ParsesRequestFromCheckedConnectionBuffer) {
  Memory memory(AccessPolicy::kFailureOblivious);
  const std::string wire = "GET /index.html HTTP/1.0\r\nHost: example.org\r\n\r\n";
  Ptr conn = memory.NewBytes(wire, "conn_buf");
  auto request = HttpRequest::Parse(memory, conn, wire.size());
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/index.html");
  EXPECT_EQ(request->Header("Host"), "example.org");
  EXPECT_EQ(memory.log().total_errors(), 0u);
}

TEST(HttpTest, ConnectionBufferOverreadSurvivesUnderFailureOblivious) {
  Memory memory(AccessPolicy::kFailureOblivious);
  const std::string wire = "GET / HTTP/1.0\r\n\r\n";
  Ptr conn = memory.NewBytes(wire, "conn_buf");
  // A worker that trusts a bad Content-Length reads past the buffer; the
  // request still parses and the server answers instead of dying.
  auto request = HttpRequest::Parse(memory, conn, wire.size() + 32);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->path, "/");
  EXPECT_GT(memory.log().total_errors(), 0u);
}

}  // namespace
}  // namespace fob
