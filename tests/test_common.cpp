// Unit tests for the common utilities: RNG, stats, histogram, options,
// and the determinism-safe FlatMap.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace tlrob {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BetweenIsInclusive) {
  Rng r(3);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) {
    const u64 v = r.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, GeometricMeanAndCap) {
  Rng r(17);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const u64 v = r.geometric(0.25, 100);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 100u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 5000.0, 4.0, 0.4);
  EXPECT_EQ(r.geometric(1.0, 10), 1u);
  EXPECT_EQ(r.geometric(0.0, 10), 10u);
}

struct TwoStats {
  u64 hits = 0;
  u64 misses = 0;
};

constexpr auto kTwoStatFields = std::to_array<StatField<TwoStats>>({
    {&TwoStats::hits, "hits"},
    {&TwoStats::misses, "miss.count"},
});

TEST(Stats, CounterBasics) {
  static_assert(names_every_field(kTwoStatFields));
  // A table missing a field, or naming one twice, fails the check.
  static_assert(!names_every_field(
      std::to_array<StatField<TwoStats>>({{&TwoStats::hits, "hits"}})));
  static_assert(!names_every_field(std::to_array<StatField<TwoStats>>(
      {{&TwoStats::hits, "hits"}, {&TwoStats::hits, "again"}})));

  TwoStats s;
  ++s.hits;
  s.misses += 4;
  std::map<std::string, u64> out;
  export_stats(out, "l9.", s, kTwoStatFields);
  EXPECT_EQ(out, (std::map<std::string, u64>{{"l9.hits", 1}, {"l9.miss.count", 4}}));
}

TEST(Stats, ResetClearsEverything) {
  TwoStats s{3, 9};
  s = {};
  std::map<std::string, u64> out;
  export_stats(out, "", s, kTwoStatFields);
  EXPECT_EQ(out, (std::map<std::string, u64>{{"hits", 0}, {"miss.count", 0}}));
}

TEST(Histogram, RecordAndClamp) {
  Histogram h(31);
  h.record(0);
  h.record(5);
  h.record(31);
  h.record(100);  // clamps into the 31+ bucket
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(31), 2u);
  EXPECT_EQ(h.total_samples(), 4u);
  // Mean uses true values, not the clamped ones.
  EXPECT_DOUBLE_EQ(h.mean(), (0 + 5 + 31 + 100) / 4.0);
}

TEST(Histogram, MergeAddsBuckets) {
  Histogram a(15), b(15);
  a.record(3);
  b.record(3);
  b.record(7);
  a.merge(b);
  EXPECT_EQ(a.bucket(3), 2u);
  EXPECT_EQ(a.bucket(7), 1u);
  EXPECT_EQ(a.total_samples(), 3u);
}

TEST(Histogram, MergeRejectsMismatchedWidth) {
  Histogram a(15), b(31);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h(15);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(50.0), 0u);
  EXPECT_EQ(h.percentile(100.0), 0u);
}

TEST(Histogram, PercentileSingleBucket) {
  Histogram h(15);
  h.record(7);
  h.record(7);
  h.record(7);
  // Every rank lands in the one occupied bucket; out-of-range p is clamped.
  EXPECT_EQ(h.percentile(0.0), 7u);
  EXPECT_EQ(h.percentile(50.0), 7u);
  EXPECT_EQ(h.percentile(100.0), 7u);
  EXPECT_EQ(h.percentile(-5.0), 7u);
  EXPECT_EQ(h.percentile(250.0), 7u);
}

TEST(Histogram, PercentileNearestRank) {
  Histogram h(15);
  for (u32 v = 1; v <= 10; ++v) h.record(v);  // one sample each of 1..10
  // Nearest-rank: p50 of 10 samples is the 5th smallest, p90 the 9th.
  EXPECT_EQ(h.percentile(50.0), 5u);
  EXPECT_EQ(h.percentile(90.0), 9u);
  EXPECT_EQ(h.percentile(100.0), 10u);
  EXPECT_EQ(h.percentile(10.0), 1u);
}

TEST(Histogram, PercentileSaturatingLastBucket) {
  Histogram h(7);  // values clamp into bucket 7
  h.record(3);
  h.record(100);
  h.record(200);
  // The saturating bucket reports the histogram's max representable value,
  // not the unclamped inputs.
  EXPECT_EQ(h.percentile(100.0), h.max_value());
  EXPECT_EQ(h.percentile(100.0), 7u);
  EXPECT_EQ(h.percentile(10.0), 3u);
}

TEST(FlatMap, LookupAndMisses) {
  FlatMap<u64, u32> m;
  m.reserve(3);
  m.emplace(30, 3);
  m.emplace(10, 1);
  m.emplace(20, 2);
  EXPECT_FALSE(m.sealed());
  m.seal();
  ASSERT_TRUE(m.sealed());
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(10), nullptr);
  EXPECT_EQ(*m.find(10), 1u);
  EXPECT_EQ(*m.find(20), 2u);
  EXPECT_EQ(*m.find(30), 3u);
  EXPECT_EQ(m.find(15), nullptr);
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(31), nullptr);
  EXPECT_TRUE(m.contains(20));
  EXPECT_FALSE(m.contains(25));
}

TEST(FlatMap, FirstInsertionWinsLikeUnorderedEmplace) {
  FlatMap<std::string, int> m;
  m.emplace("pc", 1);
  m.emplace("pc", 2);  // duplicate: discarded at seal(), like emplace()
  m.emplace("sp", 7);
  m.seal();
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find("pc"), nullptr);
  EXPECT_EQ(*m.find("pc"), 1);
}

TEST(FlatMap, IterationIsKeySortedRegardlessOfInsertionOrder) {
  const std::vector<u64> keys = {9, 2, 7, 4, 2, 9, 1};
  FlatMap<u64, u64> forward, reversed;
  for (const u64 k : keys) forward.emplace(k, k * 10);
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) reversed.emplace(*it, *it * 10);
  forward.seal();
  reversed.seal();

  std::vector<u64> order;
  for (const auto& [k, v] : forward) {
    EXPECT_EQ(v, k * 10);
    order.push_back(k);
  }
  EXPECT_EQ(order, (std::vector<u64>{1, 2, 4, 7, 9}));
  // The key sequence (though not necessarily the dup-resolved values) is
  // insertion-order independent — the D1 property block_of_pc relies on.
  std::vector<u64> order_rev;
  for (const auto& [k, v] : reversed) order_rev.push_back(k);
  EXPECT_EQ(order, order_rev);
}

TEST(FlatMap, EmptyMapBehaves) {
  FlatMap<u64, u32> m;
  m.seal();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.begin(), m.end());
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "insts=5000", "--scheme=rrob", "--verbose", "mix3"};
  const Options o = Options::from_args(5, argv, {"verbose"});  // else verbose=mix3
  EXPECT_EQ(o.get_u64("insts", 0), 5000u);
  EXPECT_EQ(o.get("scheme"), "rrob");
  EXPECT_TRUE(o.get_bool("verbose", false));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "mix3");
}

TEST(Options, SpaceSeparatedValueMatchesKeyValue) {
  const char* spaced[] = {"prog", "--mix", "2", "--max-cycles", "9", "--json", "-", "art"};
  const char* joined[] = {"prog", "mix=2", "max_cycles=9", "--json=-", "art"};
  for (const Options& o : {Options::from_args(8, spaced), Options::from_args(5, joined),
                           Options::from_tokens({"--mix=2", "--max-cycles=9", "--json=-", "art"})}) {
    EXPECT_EQ(o.get_u64("mix", 0), 2u);
    EXPECT_EQ(o.get_u64("max_cycles", 0), 9u);
    EXPECT_EQ(o.get("json"), "-");
    EXPECT_EQ(o.positional(), std::vector<std::string>{"art"});
  }
  // A following option, or a token with '=', is not a value.
  const char* bare[] = {"prog", "--stats", "--profile", "mix=1"};
  const Options o = Options::from_args(4, bare);
  EXPECT_TRUE(o.get_bool("stats", false));
  EXPECT_TRUE(o.get_bool("profile", false));
  EXPECT_EQ(o.get_u64("mix", 0), 1u);
}

// Values must parse whole; the error names the key.
TEST(Options, MalformedValuesAreRejectedNamingTheKey) {
  const Options o = Options::from_tokens({"insts=2k", "neg=-1", "blank=", "hex=0x10",
                                          "flag=maybe", "mixes=1,1x",
                                          "thresholds=abc", "wide=16,4294967312", "ok=8,16"});
  auto message = [](auto&& read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no error)";
  };
  EXPECT_NE(message([&] { (void)o.get_u64("insts", 0); }).find("insts"), std::string::npos);
  EXPECT_NE(message([&] { (void)o.get_u64("neg", 0); }).find("neg"), std::string::npos);
  EXPECT_NE(message([&] { (void)o.get_u64("blank", 0); }).find("blank"), std::string::npos);
  EXPECT_NE(message([&] { (void)o.get_bool("flag", false); }).find("flag"), std::string::npos);
  EXPECT_NE(message([&] { (void)o.get_u32_list("mixes"); }).find("mixes"), std::string::npos);
  EXPECT_NE(message([&] { (void)o.get_u32_list("thresholds"); }).find("thresholds"),
            std::string::npos);
  EXPECT_NE(message([&] { (void)o.get_u32_list("wide"); }).find("option wide"),
            std::string::npos);
  EXPECT_EQ(o.get_u64("hex", 0), 16u);
  EXPECT_EQ(o.get_u32_list("ok"), (std::vector<u32>{8, 16}));
  EXPECT_THROW((void)parse_u64("99999999999999999999", "big"), std::invalid_argument);
}

TEST(Options, FallbacksAndBoolSpellings) {
  const Options o = Options::from_tokens({"flag=off", "n=0x10"});
  EXPECT_FALSE(o.get_bool("flag", true));
  EXPECT_EQ(o.get_u64("n", 0), 16u);
  EXPECT_EQ(o.get_u64("absent", 7), 7u);
}

TEST(Options, UnreadKeysAreTheOnesNothingAskedFor) {
  const Options o = Options::from_tokens({"a=1", "b=2", "c=3", "--d", "e=5", "pos"});
  EXPECT_EQ(o.unread_keys(), (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  (void)o.get_u64("a", 0);
  (void)o.has("c");
  (void)o.get_bool("d", false);
  (void)o.get_list("e");
  (void)o.get("absent");  // reading an absent key marks nothing set
  EXPECT_EQ(o.unread_keys(), std::vector<std::string>{"b"});
  EXPECT_THROW(o.require_all_read(), std::invalid_argument);
  (void)o.get_u32("b", 0);
  EXPECT_TRUE(o.unread_keys().empty());
  o.require_all_read();
}

// The error spells an unknown key the way the command line did.
TEST(Options, UnknownKeyIsReportedAsTyped) {
  auto unknown = [](std::vector<const char*> argv) -> std::string {
    argv.insert(argv.begin(), "prog");
    try {
      Options::from_args(static_cast<int>(argv.size()), argv.data()).require_all_read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no error)";
  };
  EXPECT_EQ(unknown({"bogus=1"}), "unknown option bogus");
  EXPECT_EQ(unknown({"--bogus", "1"}), "unknown option --bogus");
  EXPECT_EQ(unknown({"--max-cycles=5"}), "unknown option --max-cycles");
  EXPECT_EQ(unknown({"--dry_run"}), "unknown option --dry_run");
  EXPECT_EQ(unknown({"pos"}), "(no error)");
}

// cli_main is the front ends' error contract: a thrown exception is
// "error: <message>" on stderr and exit status 2.
TEST(Options, CliMainReportsExceptionsAsExitTwo) {
  EXPECT_EQ(cli_main([] { return 0; }), 0);
  testing::internal::CaptureStderr();
  const int rc = cli_main([]() -> int { throw std::invalid_argument("bad knob"); });
  EXPECT_EQ(rc, 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "error: bad knob\n");
}

}  // namespace
}  // namespace tlrob
