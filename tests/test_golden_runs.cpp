// Golden-run regression suite: every figure/table preset, re-run at the
// short golden run length and compared against tests/golden/records.jsonl,
// the JSONL records `tlrob-campaign all` writes at that length. Every field
// and every counter must match exactly; EXPERIMENTS.md "Golden-run
// fixtures" has the one command that re-records the fixture.
//
// A failure here means the architectural model changed. Performance work
// on the simulator core must keep this suite green; a deliberate model
// change re-records the fixture and says so.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/engine.hpp"
#include "runner/golden.hpp"
#include "runner/presets.hpp"

namespace tlrob::runner {
namespace {

#ifndef TLROB_GOLDEN_DIR
#error "TLROB_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

const std::string kFixture = std::string(TLROB_GOLDEN_DIR) + "/records.jsonl";

// audit.* appears only under an audit (TLROB_AUDIT), so an audited run
// compares against the unaudited fixture. Everything else is held,
// core.fast_forwarded_cycles included: an audited run skips the same spans.
const std::vector<std::string> kSkippedCounters = {"audit."};

constexpr size_t kMaxReportedCells = 20;

const std::vector<std::string>& fixture_lines() {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out;
    std::ifstream in(kFixture);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }();
  return lines;
}

const std::vector<JobRecord>& fixture_records() {
  static const std::vector<JobRecord> records = [] {
    std::vector<JobRecord> out;
    for (const std::string& line : fixture_lines()) out.push_back(record_from_json_line(line));
    return out;
  }();
  return records;
}

std::vector<JobRecord> fixture_records(const std::string& campaign) {
  std::vector<JobRecord> out;
  std::copy_if(fixture_records().begin(), fixture_records().end(), std::back_inserter(out),
               [&](const JobRecord& r) { return r.campaign == campaign; });
  return out;
}

// Flattens a JSON value to path -> scalar text ("st_ipc[1]",
// "counters.l1d.misses"), so two records diff key by key.
void flatten(const JsonValue& v, const std::string& path,
             std::map<std::string, std::string>& out) {
  switch (v.kind) {
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.members)
        flatten(member, path.empty() ? key : path + "." + key, out);
      break;
    case JsonValue::Kind::kArray:
      for (size_t i = 0; i < v.items.size(); ++i)
        flatten(v.items[i], path + "[" + std::to_string(i) + "]", out);
      break;
    case JsonValue::Kind::kString: out[path] = json_escape(v.lexeme); break;
    case JsonValue::Kind::kBool: out[path] = v.boolean ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: out[path] = v.lexeme; break;
    case JsonValue::Kind::kNull: out[path] = "null"; break;
  }
}

std::map<std::string, std::string> compared_keys(JobRecord r) {
  std::erase_if(r.counters, [](const auto& counter) {
    return std::any_of(kSkippedCounters.begin(), kSkippedCounters.end(),
                       [&](const std::string& key) { return counter.first.starts_with(key); });
  });
  std::map<std::string, std::string> keys;
  flatten(parse_json(to_json_line(r)), "", keys);
  return keys;
}

// "" when the records match; otherwise each differing cell
// (campaign/config/mix) and each key in it, expected -> actual.
std::string records_diff(const std::vector<JobRecord>& expected,
                         const std::vector<JobRecord>& actual) {
  std::ostringstream os;
  if (expected.size() != actual.size())
    os << "record count: fixture " << expected.size() << ", run " << actual.size() << "\n";
  size_t cells = 0;
  for (size_t i = 0; i < std::min(expected.size(), actual.size()); ++i) {
    auto want = compared_keys(expected[i]), got = compared_keys(actual[i]);
    if (want == got || ++cells > kMaxReportedCells) continue;
    os << expected[i].campaign << "/" << expected[i].config << "/" << expected[i].mix << ":\n";
    for (const auto& [key, value] : got) want.try_emplace(key, "(absent)");
    for (const auto& [key, value] : want) {
      const auto it = got.find(key);
      const std::string now = it == got.end() ? "(absent)" : it->second;
      if (now != value) os << "  " << key << ": " << value << " -> " << now << "\n";
    }
  }
  if (cells > kMaxReportedCells)
    os << "... and " << (cells - kMaxReportedCells) << " more differing cells\n";
  return os.str();
}

// Runs `preset` the way `tlrob-campaign` does, through the process-wide cell
// memo, and compares its records with the preset's fixture lines position
// by position. A preset with no fixture lines fails on the record count.
struct PresetMatchesFixture : ::testing::Test {
  explicit PresetMatchesFixture(std::string name) : preset(std::move(name)) {}
  void TestBody() override {
    const CampaignResult run = run_campaign(preset_campaign(preset, golden_run_length()), {});
    const std::string diff = records_diff(fixture_records(preset), run.records);
    EXPECT_TRUE(diff.empty()) << "architectural drift on preset " << preset << ":\n" << diff;
  }
  std::string preset;
};

// GoldenRuns.<Preset> for each name in preset_names() (ablation_fetch_policy
// is AblationFetchPolicy), so ctest runs the presets in parallel and a new
// preset gets its test without a hand-kept list.
const bool kPresetTestsRegistered = [] {
  for (const std::string& preset : preset_names()) {
    std::string name;
    for (size_t i = 0; i < preset.size(); ++i)
      if (preset[i] != '_')
        name += i == 0 || preset[i - 1] == '_' ? static_cast<char>(std::toupper(preset[i]))
                                               : preset[i];
    ::testing::RegisterTest("GoldenRuns", name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
                            [preset]() -> ::testing::Test* {
                              return new PresetMatchesFixture(preset);
                            });
  }
  return true;
}();

// The fixture holds each preset's records as one block, in preset_names()
// order, and nothing else: lines left from a deleted preset, or a preset
// added without re-recording, fail here.
TEST(GoldenRuns, SuiteCoversEveryPreset) {
  ASSERT_FALSE(fixture_lines().empty()) << "missing or empty " << kFixture;
  std::vector<std::string> blocks;
  for (const JobRecord& r : fixture_records())
    if (blocks.empty() || blocks.back() != r.campaign) blocks.push_back(r.campaign);
  EXPECT_EQ(blocks, preset_names()) << "re-record " << kFixture << " (EXPERIMENTS.md)";
}

// The fixture must witness the second-level machinery engaging at the golden
// run length: if every two-level scheme recorded zero grants, the whole
// R-ROB/P-ROB path could drift undetected.
TEST(GoldenRuns, FixturesExerciseSecondLevel) {
  u64 grants = 0;
  for (const char* preset : {"fig2", "fig4", "fig5", "fig6"})
    for (const JobRecord& r : fixture_records(preset))
      grants += r.counters.at("rob.allocations");
  EXPECT_GT(grants, 0u) << "no fixture records a second-level grant; the golden "
                           "run length is too short to exercise two-level schemes";
}

// Grants and tenures have one ledger, the partition's: in every record the
// per-thread families sum to its totals.
TEST(GoldenRuns, EveryRecordBalancesTheSecondLevelLedger) {
  ASSERT_FALSE(fixture_lines().empty()) << "missing or empty " << kFixture;
  for (const JobRecord& r : fixture_records()) {
    u64 grants = 0;
    u64 held = 0;
    for (const auto& [key, value] : r.counters) {
      if (key.starts_with("rob.allocations.t")) grants += value;
      if (key.starts_with("rob.busy.t")) held += value;
    }
    const std::string cell = r.campaign + "/" + r.config + "/" + r.mix;
    EXPECT_EQ(grants, r.counters.at("rob.allocations")) << cell;
    EXPECT_EQ(held, r.counters.at("rob2.busy_cycles")) << cell;
  }
}

// Every fixture line round-trips through the record parser byte for byte,
// so comparing parsed records compares the file, and a re-record that
// changes nothing is a no-op diff.
TEST(GoldenRuns, FixtureRoundTripIsByteIdentical) {
  ASSERT_FALSE(fixture_lines().empty()) << "missing or empty " << kFixture;
  for (const std::string& line : fixture_lines())
    EXPECT_EQ(to_json_line(record_from_json_line(line)), line);
}

}  // namespace
}  // namespace tlrob::runner
