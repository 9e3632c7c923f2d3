// Replays every checked-in fuzz-corpus case (tests/corpus/<server>/, see
// tests/corpus/README.md) under all seven uniform policies and asserts the
// recorded error sites still fire. This is the corpus's regression
// guarantee: a refactor that silently kills a discovered site — renames the
// unit, removes the staging copy, changes the frame — turns the site id
// over and this test names the stale case file.
//
// Per-policy replay rule:
//   - kFailureOblivious (the recording policy): EVERY recorded site fires.
//   - other continuing policies (kBoundless, kWrap, kZeroManufacture,
//     kThreshold): at least one recorded site fires — manufactured values
//     may steer control flow off the full set, but the overflow itself is
//     policy-independent.
//   - kStandard / kBoundsCheck: the replay completes under the access
//     budget — corrupting or terminating the request is allowed (bounds
//     checking terminates before anything reaches the log), hanging the
//     harness is not.
//
// The corpus root comes from the build (FOB_CORPUS_DIR); cases regenerate
// with `fuzz_run <server> <seed> <iterations> tests/corpus`.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/harness/fuzz.h"

namespace fob {
namespace {

constexpr uint64_t kReplayBudget = 2'000'000;

// One continuing policy must preserve every recorded site; the rest of the
// continuing family must keep at least one alive.
bool RequiresAllSites(AccessPolicy policy) {
  return policy == AccessPolicy::kFailureOblivious;
}

bool IsContinuingPolicy(AccessPolicy policy) {
  switch (policy) {
    case AccessPolicy::kFailureOblivious:
    case AccessPolicy::kBoundless:
    case AccessPolicy::kWrap:
    case AccessPolicy::kZeroManufacture:
    case AccessPolicy::kThreshold:
      return true;
    case AccessPolicy::kStandard:
    case AccessPolicy::kBoundsCheck:
      return false;
  }
  return false;
}

struct LoadedCase {
  std::string path;  // for failure messages
  CorpusCase record;
};

// Reads one server's MANIFEST.tsv + case files. Malformed content is a test
// failure naming the file — the checked-in corpus must stay parseable.
std::vector<LoadedCase> LoadServerCorpus(const std::filesystem::path& dir) {
  std::vector<LoadedCase> cases;
  std::ifstream manifest(dir / "MANIFEST.tsv");
  std::string line;
  size_t line_number = 0;
  while (std::getline(manifest, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    auto parsed = ParseManifestLine(line);
    if (!parsed.has_value()) {
      ADD_FAILURE() << (dir / "MANIFEST.tsv").string() << ":" << line_number
                    << ": malformed manifest line '" << line << "'";
      continue;
    }
    const std::filesystem::path case_path = dir / parsed->file;
    std::ifstream case_file(case_path);
    std::string wire;
    if (!case_file || !std::getline(case_file, wire)) {
      ADD_FAILURE() << "unreadable corpus case " << case_path.string();
      continue;
    }
    auto request = ServerRequest::Deserialize(wire);
    if (!request.has_value()) {
      ADD_FAILURE() << "unparseable request in " << case_path.string();
      continue;
    }
    parsed->request = *request;
    cases.push_back({case_path.string(), std::move(*parsed)});
  }
  return cases;
}

// Every case file is one Serialize() line; decoding it and encoding the
// result must give back the same bytes, so the wire codec cannot drift from
// the lines the corpus was recorded with.
TEST(CorpusWireTest, EveryCaseLineRoundTripsByteForByte) {
  size_t lines = 0;
  for (const auto& server_dir : std::filesystem::directory_iterator(FOB_CORPUS_DIR)) {
    if (!server_dir.is_directory()) {
      continue;
    }
    for (const auto& entry : std::filesystem::directory_iterator(server_dir.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("case_", 0) != 0 || entry.path().extension() != ".req") {
        continue;
      }
      std::ifstream file(entry.path(), std::ios::binary);
      const std::string contents((std::istreambuf_iterator<char>(file)),
                                 std::istreambuf_iterator<char>());
      ASSERT_FALSE(contents.empty()) << entry.path().string();
      ASSERT_EQ(contents.back(), '\n') << entry.path().string();
      const std::string line = contents.substr(0, contents.size() - 1);
      ASSERT_EQ(line.find('\n'), std::string::npos) << entry.path().string();
      std::optional<ServerRequest> request = ServerRequest::Deserialize(line);
      ASSERT_TRUE(request.has_value()) << entry.path().string();
      EXPECT_EQ(request->Serialize(), line) << entry.path().string();
      ++lines;
    }
  }
  EXPECT_GT(lines, 0u);
}

TEST(CorpusReplayTest, EveryCheckedInCaseStillFiresItsSitesUnderEveryPolicy) {
  const std::filesystem::path root(FOB_CORPUS_DIR);
  size_t servers_with_corpus = 0;
  for (Server server : kAllServers) {
    const std::filesystem::path dir = root / ServerShortName(server);
    if (!std::filesystem::exists(dir / "MANIFEST.tsv")) {
      continue;
    }
    ++servers_with_corpus;
    std::vector<LoadedCase> cases = LoadServerCorpus(dir);
    EXPECT_FALSE(cases.empty()) << dir.string() << " has a manifest but no valid cases";
    for (const LoadedCase& loaded : cases) {
      for (AccessPolicy policy : kAllPolicies) {
        std::vector<MemSiteStat> sites =
            ExecuteRequestForSites(server, loaded.record.request, policy, kReplayBudget);
        std::set<SiteId> seen;
        for (const MemSiteStat& stat : sites) {
          seen.insert(stat.site);
        }
        if (RequiresAllSites(policy)) {
          for (SiteId id : loaded.record.sites) {
            EXPECT_EQ(seen.count(id), 1u)
                << loaded.path << ": recorded site 0x" << std::hex << id << std::dec
                << " no longer fires under " << PolicyName(policy)
                << " — the case is stale; regenerate the corpus or fix the regression";
          }
        } else if (IsContinuingPolicy(policy)) {
          size_t alive = 0;
          for (SiteId id : loaded.record.sites) {
            alive += seen.count(id);
          }
          EXPECT_GT(alive, 0u) << loaded.path << ": no recorded site fires under "
                               << PolicyName(policy);
        }
        // kStandard / kBoundsCheck: reaching this line is the assertion —
        // the replay completed under the budget instead of hanging.
      }
    }
  }
  // The repo ships corpora for the two post-paper servers; an empty sweep
  // means the build is pointed at the wrong FOB_CORPUS_DIR.
  EXPECT_GE(servers_with_corpus, 2u) << "no corpus found under " << root.string();
}

}  // namespace
}  // namespace fob
