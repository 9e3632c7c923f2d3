#include <gtest/gtest.h>

#include <string>

#include "src/mail/mbox.h"
#include "src/mail/message.h"
#include "src/runtime/memory.h"

namespace fob {
namespace {

TEST(MessageTest, ParseHeadersAndBody) {
  MailMessage m = MailMessage::Parse("From: alice@example.org\nTo: bob@example.org\n"
                                     "Subject: hello\n\nbody line 1\nbody line 2\n");
  EXPECT_EQ(m.From(), "alice@example.org");
  EXPECT_EQ(m.To(), "bob@example.org");
  EXPECT_EQ(m.Subject(), "hello");
  EXPECT_EQ(m.body, "body line 1\nbody line 2\n");
}

TEST(MessageTest, HeaderLookupIsCaseInsensitive) {
  MailMessage m = MailMessage::Parse("FROM: x\n\n");
  EXPECT_EQ(m.Header("from"), "x");
  EXPECT_EQ(m.Header("From"), "x");
}

TEST(MessageTest, FoldedHeaderContinuation) {
  MailMessage m = MailMessage::Parse("Subject: part one\n\tpart two\n\n");
  EXPECT_EQ(m.Subject(), "part one part two");
}

TEST(MessageTest, CrLfTolerated) {
  MailMessage m = MailMessage::Parse("From: a\r\n\r\nbody\r\n");
  EXPECT_EQ(m.From(), "a");
}

TEST(MessageTest, SerializeParseRoundTrip) {
  MailMessage m = MailMessage::Make("a@b", "c@d", "subject here", "the body\n");
  MailMessage r = MailMessage::Parse(m.Serialize());
  EXPECT_EQ(r.From(), "a@b");
  EXPECT_EQ(r.To(), "c@d");
  EXPECT_EQ(r.Subject(), "subject here");
  EXPECT_EQ(r.body, "the body\n");
}

TEST(MessageTest, SetHeaderReplacesOrAppends) {
  MailMessage m;
  m.SetHeader("From", "first");
  m.SetHeader("From", "second");
  EXPECT_EQ(m.From(), "second");
  EXPECT_EQ(m.headers.size(), 1u);
  m.SetHeader("X-New", "v");
  EXPECT_EQ(m.headers.size(), 2u);
}

TEST(MessageTest, MissingHeaderIsEmpty) {
  MailMessage m = MailMessage::Parse("\njust body\n");
  EXPECT_EQ(m.From(), "");
  EXPECT_EQ(m.body, "just body\n");
}

TEST(MboxTest, EmptyInputYieldsNoMessages) {
  EXPECT_TRUE(ParseMbox("").empty());
}

TEST(MboxTest, SingleMessageRoundTrip) {
  std::vector<MailMessage> in = {MailMessage::Make("a@b", "c@d", "s", "hello\n")};
  std::vector<MailMessage> out = ParseMbox(SerializeMbox(in));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].From(), "a@b");
  EXPECT_EQ(out[0].Subject(), "s");
  EXPECT_EQ(out[0].body, "hello\n");
}

TEST(MboxTest, MultipleMessagesRoundTrip) {
  std::vector<MailMessage> in;
  for (int i = 0; i < 5; ++i) {
    in.push_back(MailMessage::Make("sender" + std::to_string(i) + "@x", "rcpt@x",
                                   "subject " + std::to_string(i),
                                   "body " + std::to_string(i) + "\n"));
  }
  std::vector<MailMessage> out = ParseMbox(SerializeMbox(in));
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].From(), "sender" + std::to_string(i) + "@x");
    EXPECT_EQ(out[static_cast<size_t>(i)].body, "body " + std::to_string(i) + "\n");
  }
}

TEST(MboxTest, FromStuffingInBody) {
  std::vector<MailMessage> in = {
      MailMessage::Make("a@b", "c@d", "s", "line\nFrom here it looks fine\nend\n")};
  std::string mbox = SerializeMbox(in);
  // The body's "From " line must be quoted in the container...
  EXPECT_NE(mbox.find(">From here"), std::string::npos);
  // ...and restored on parse.
  std::vector<MailMessage> out = ParseMbox(mbox);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].body, "line\nFrom here it looks fine\nend\n");
}

TEST(MboxTest, LargeFolder) {
  // The paper processed folders with over 100,000 messages; keep the unit
  // test at a size that still exercises scale (the stability bench goes
  // bigger).
  std::vector<MailMessage> in;
  for (int i = 0; i < 2000; ++i) {
    // Appended rather than `"n" + std::to_string(i)`: that temporary
    // concatenation trips GCC 12's -Wrestrict false positive in Release.
    std::string subject = "n";
    subject.append(std::to_string(i));
    in.push_back(MailMessage::Make("bulk@x", "me@y", subject, "b\n"));
  }
  std::vector<MailMessage> out = ParseMbox(SerializeMbox(in));
  EXPECT_EQ(out.size(), 2000u);
}

TEST(MboxTest, GarbageBeforeFirstFromIgnored) {
  std::vector<MailMessage> out = ParseMbox("junk preamble\nFrom x\nFrom: a@b\n\nbody\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].From(), "a@b");
}

TEST(MboxTest, ParsesFromCheckedMemorySpool) {
  Memory memory(AccessPolicy::kFailureOblivious);
  std::vector<MailMessage> folder = {MailMessage::Make("a@b", "c@d", "one", "first\n"),
                                     MailMessage::Make("e@f", "g@h", "two", "second\n")};
  std::string spool = SerializeMbox(folder);
  Ptr p = memory.NewBytes(spool, "spool");
  std::vector<MailMessage> out = ParseMbox(memory, p, spool.size());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].Subject(), "one");
  EXPECT_EQ(out[1].Subject(), "two");
  EXPECT_EQ(memory.log().total_errors(), 0u);
}

TEST(MboxTest, SpoolOverreadContinuesUnderFailureOblivious) {
  Memory memory(AccessPolicy::kFailureOblivious);
  std::string spool = SerializeMbox({MailMessage::Make("a@b", "c@d", "s", "body\n")});
  Ptr p = memory.NewBytes(spool, "spool");
  // A size-calculation bug reads past the spool: the parse consumes
  // manufactured bytes instead of crashing the mail server.
  std::vector<MailMessage> out = ParseMbox(memory, p, spool.size() + 64);
  ASSERT_GE(out.size(), 1u);
  EXPECT_EQ(out[0].Subject(), "s");
  EXPECT_GT(memory.log().total_errors(), 0u);
}

}  // namespace
}  // namespace fob
