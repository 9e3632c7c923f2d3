#include "src/apps/server_app.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <limits>

namespace fob {

const char* ServerName(Server server) {
  switch (server) {
    case Server::kPine:
      return "Pine";
    case Server::kApache:
      return "Apache";
    case Server::kSendmail:
      return "Sendmail";
    case Server::kMc:
      return "Midnight Commander";
    case Server::kMutt:
      return "Mutt";
    case Server::kArchive:
      return "Archive Inbox";
    case Server::kCodec:
      return "Codec Gateway";
  }
  return "?";
}

const char* ServerShortName(Server server) {
  switch (server) {
    case Server::kPine:
      return "pine";
    case Server::kApache:
      return "apache";
    case Server::kSendmail:
      return "sendmail";
    case Server::kMc:
      return "mc";
    case Server::kMutt:
      return "mutt";
    case Server::kArchive:
      return "archive";
    case Server::kCodec:
      return "codec";
  }
  return "?";
}

const char* RequestTagName(RequestTag tag) {
  switch (tag) {
    case RequestTag::kLegit:
      return "legit";
    case RequestTag::kAttack:
      return "attack";
    case RequestTag::kMaintenance:
      return "maintenance";
  }
  return "?";
}

namespace {

// The wire codec. A line is tab-separated fields; every string field is
// percent-escaped so tabs, newlines and raw bytes survive the one-line form,
// and numbers are plain decimal. Decoding splits the line into string_views
// and unescapes each field straight into its pre-sized destination; encoding
// sizes the whole line first and appends into it. Neither makes an
// intermediate copy: decoding a ~12 KB MC browse line (a .tgz payload that
// is mostly escaped binary) is most of a Frontend lane's per-request wire
// cost.

constexpr char kHex[] = "0123456789ABCDEF";

// Hex value of each byte, -1 for a byte that is not a hex digit. Built at
// compile time at namespace scope: a function-local static would add a
// guard variable, which is writable state shared by every shard.
constexpr std::array<int8_t, 256> kNibble = [] {
  std::array<int8_t, 256> table{};
  table.fill(-1);
  for (int c = 0; c < 10; ++c) {
    table['0' + c] = static_cast<int8_t>(c);
  }
  for (int c = 0; c < 6; ++c) {
    table['A' + c] = table['a' + c] = static_cast<int8_t>(10 + c);
  }
  return table;
}();

// '%', tabs, newlines and every other non-printable byte are escaped.
bool NeedsEscape(unsigned char c) { return c == '%' || c < 0x20 || c >= 0x7f; }

size_t EscapedSize(std::string_view s) {
  size_t size = s.size();
  for (unsigned char c : s) {
    size += NeedsEscape(c) ? 2 : 0;
  }
  return size;
}

void AppendEscaped(std::string& out, std::string_view s) {
  size_t run = 0;  // start of the pending run of bytes that pass as is
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!NeedsEscape(c)) {
      continue;
    }
    out.append(s.data() + run, i - run);
    const char escaped[3] = {'%', kHex[c >> 4], kHex[c & 0xf]};
    out.append(escaped, 3);
    run = i + 1;
  }
  out.append(s.data() + run, s.size() - run);
}

// Multi-line fields travel as one escaped field joined by '\n', i.e. by its
// escape "%0A", so the lines are escaped one by one with no joined copy.
size_t EscapedLinesSize(const std::vector<std::string>& lines) {
  size_t size = lines.empty() ? 0 : 3 * (lines.size() - 1);
  for (const std::string& line : lines) {
    size += EscapedSize(line);
  }
  return size;
}

void AppendEscapedLines(std::string& out, const std::vector<std::string>& lines) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) {
      out.append("%0A", 3);
    }
    AppendEscaped(out, lines[i]);
  }
}

template <typename Int>
void AppendNumber(std::string& out, Int value) {
  char digits[24];
  const std::to_chars_result end = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, end.ptr);
}

// Decodes an escaped field into `out`. False when a '%' is not followed by
// two hex digits, at the end of the field or in the middle of it. A plain
// byte loop: binary payloads are mostly escapes, so searching for the next
// '%' would cost a call per escape.
bool Unescape(std::string_view s, std::string& out) {
  out.resize(s.size());
  char* write = out.data();
  const char* read = s.data();
  const char* const end = read + s.size();
  while (read < end) {
    if (*read != '%') {
      *write++ = *read++;
      continue;
    }
    if (end - read < 3) {
      return false;
    }
    const int hi = kNibble[static_cast<unsigned char>(read[1])];
    const int lo = kNibble[static_cast<unsigned char>(read[2])];
    if (hi < 0 || lo < 0) {
      return false;
    }
    *write++ = static_cast<char>((hi << 4) | lo);
    read += 3;
  }
  out.resize(static_cast<size_t>(write - out.data()));
  return true;
}

// A decimal number in canonical form: ASCII digits only, no sign, space,
// leading zero or trailing byte, and at most `max`. Anything else is
// rejected, so every number that parses re-encodes to the same bytes.
std::optional<uint64_t> ParseNumber(std::string_view s, uint64_t max) {
  if (s.empty() || (s.size() > 1 && s[0] == '0')) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const auto digit = static_cast<uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

// Splits `line` at tabs into exactly `N` fields; false on any other count.
template <size_t N>
bool SplitFields(std::string_view line, std::array<std::string_view, N>& fields) {
  size_t start = 0;
  for (size_t i = 0; i + 1 < N; ++i) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      return false;
    }
    fields[i] = line.substr(start, tab - start);
    start = tab + 1;
  }
  fields[N - 1] = line.substr(start);
  return fields[N - 1].find('\t') == std::string_view::npos;
}

std::vector<std::string> SplitJoined(const std::string& joined) {
  if (joined.empty()) {
    return {};
  }
  std::vector<std::string> lines;
  size_t start = 0;
  while (true) {
    size_t nl = joined.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(joined.substr(start));
      return lines;
    }
    lines.push_back(joined.substr(start, nl - start));
    start = nl + 1;
  }
}

}  // namespace

std::string ServerRequest::Serialize() const {
  std::string line;
  // "REQ", a one-digit tag, a client id of at most 20 digits and 9 tabs.
  line.reserve(3 + 1 + 20 + 9 + EscapedSize(op) + EscapedSize(target) + EscapedSize(arg) +
               EscapedSize(arg2) + EscapedLinesSize(lines) + EscapedSize(payload) +
               EscapedSize(expect));
  line.append("REQ\t");
  AppendNumber(line, static_cast<int>(tag));
  line.push_back('\t');
  AppendNumber(line, client_id);
  for (const std::string* field : {&op, &target, &arg, &arg2}) {
    line.push_back('\t');
    AppendEscaped(line, *field);
  }
  line.push_back('\t');
  AppendEscapedLines(line, lines);
  line.push_back('\t');
  AppendEscaped(line, payload);
  line.push_back('\t');
  AppendEscaped(line, expect);
  return line;
}

std::optional<ServerRequest> ServerRequest::Deserialize(std::string_view line) {
  std::array<std::string_view, 10> fields;
  if (!SplitFields(line, fields) || fields[0] != "REQ") {
    return std::nullopt;
  }
  const std::optional<uint64_t> tag =
      ParseNumber(fields[1], static_cast<uint64_t>(RequestTag::kMaintenance));
  const std::optional<uint64_t> client_id =
      ParseNumber(fields[2], std::numeric_limits<uint64_t>::max());
  if (!tag || !client_id) {
    return std::nullopt;
  }
  ServerRequest request;
  request.tag = static_cast<RequestTag>(*tag);
  request.client_id = *client_id;
  std::string joined_lines;
  if (!Unescape(fields[3], request.op) || !Unescape(fields[4], request.target) ||
      !Unescape(fields[5], request.arg) || !Unescape(fields[6], request.arg2) ||
      !Unescape(fields[7], joined_lines) || !Unescape(fields[8], request.payload) ||
      !Unescape(fields[9], request.expect)) {
    return std::nullopt;
  }
  request.lines = SplitJoined(joined_lines);
  return request;
}

std::string ServerResponse::Serialize() const {
  std::string line;
  // "RSP", two flags, a status of at most 11 characters and 6 tabs.
  line.reserve(3 + 2 + 11 + 6 + EscapedSize(body) + EscapedSize(error) +
               EscapedLinesSize(lines));
  line.append(ok ? "RSP\t1\t" : "RSP\t0\t");
  line.append(acceptable ? "1\t" : "0\t");
  AppendNumber(line, status);
  line.push_back('\t');
  AppendEscaped(line, body);
  line.push_back('\t');
  AppendEscaped(line, error);
  line.push_back('\t');
  AppendEscapedLines(line, lines);
  return line;
}

std::optional<ServerResponse> ServerResponse::Deserialize(std::string_view line) {
  std::array<std::string_view, 7> fields;
  if (!SplitFields(line, fields) || fields[0] != "RSP") {
    return std::nullopt;
  }
  const std::optional<uint64_t> ok = ParseNumber(fields[1], 1);
  const std::optional<uint64_t> acceptable = ParseNumber(fields[2], 1);
  const std::optional<uint64_t> status =
      ParseNumber(fields[3], std::numeric_limits<int>::max());
  if (!ok || !acceptable || !status) {
    return std::nullopt;
  }
  ServerResponse response;
  response.ok = *ok == 1;
  response.acceptable = *acceptable == 1;
  response.status = static_cast<int>(*status);
  std::string joined_lines;
  if (!Unescape(fields[4], response.body) || !Unescape(fields[5], response.error) ||
      !Unescape(fields[6], joined_lines)) {
    return std::nullopt;
  }
  response.lines = SplitJoined(joined_lines);
  return response;
}

}  // namespace fob
