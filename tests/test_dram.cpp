// Timing tests for the banked DRAM model behind the shared LLC: row-buffer
// hit/miss/conflict latencies (table-driven against the tCAS/tRCD/tRP
// decomposition), per-bank serialisation vs cross-bank/channel overlap,
// channel-bus occupancy, closed-page auto-precharge, and determinism — the
// same access sequence replayed on a fresh model reproduces every completion
// cycle and counter, and sequences touching disjoint channels commute.
#include <gtest/gtest.h>

#include <vector>

#include "memory/dram.hpp"

namespace tlrob {
namespace {

/// The transfer unit every model here is built with (the owning LLC's line).
constexpr u32 kLineBytes = 64;

/// Small geometry so the tests can name banks directly: 2 channels x 4
/// banks, 64B lines, 256B rows (4 lines per row), 8B bus, critical chunk
/// one line. transfer = 64/8 * interchunk(2) = 16 cycles.
DramConfig small_config() {
  DramConfig cfg;
  cfg.channels = 2;
  cfg.banks_per_channel = 4;
  cfg.row_bytes = 256;
  cfg.bus_bytes = 8;
  cfg.interchunk = 2;
  cfg.critical_bytes = 64;
  cfg.tcas = 100;
  cfg.trcd = 60;
  cfg.trp = 40;
  return cfg;
}

/// Inverse of DramModel::map for the small geometry: builds the address of
/// `line_in_row` within (channel, bank, row).
Addr make_addr(const DramConfig& cfg, u32 channel, u32 bank, u64 row, u64 line_in_row) {
  const u64 lines_per_row = cfg.row_bytes / kLineBytes;
  u64 line = row;
  line = line * cfg.banks_per_channel + bank;
  line = line * lines_per_row + line_in_row;
  line = line * cfg.channels + channel;
  return line * kLineBytes;
}

TEST(Dram, MapRoundTripsMakeAddr) {
  const DramConfig cfg = small_config();
  DramModel dram(cfg, kLineBytes);
  for (u32 ch = 0; ch < cfg.channels; ++ch)
    for (u32 b = 0; b < cfg.banks_per_channel; ++b)
      for (u64 row : {u64{0}, u64{3}, u64{1000}}) {
        const auto ref = dram.map(make_addr(cfg, ch, b, row, 1));
        EXPECT_EQ(ref.channel, ch);
        EXPECT_EQ(ref.bank, b);
        EXPECT_EQ(ref.row, row);
      }
}

TEST(Dram, ConfigValidation) {
  DramConfig cfg = small_config();
  cfg.channels = 3;
  EXPECT_THROW((DramModel{cfg, kLineBytes}), std::invalid_argument);
  cfg = small_config();
  cfg.row_bytes = 32;  // smaller than the 64B line
  EXPECT_THROW((DramModel{cfg, kLineBytes}), std::invalid_argument);
}

// The table: row-buffer outcome -> absolute completion cycle for a request
// issued at cycle 0 against a prepared bank. transfer = 16.
TEST(Dram, RowOutcomeLatencyTable) {
  const DramConfig cfg = small_config();
  struct Case {
    const char* name;
    u64 prepared_row;  // row opened before the measured access (same bank)
    bool prepare;      // false = cold bank
    u64 target_row;
    DramModel::RowOutcome want;
    Cycle want_latency;  // from issue to done, bank and bus idle
  };
  const Case kCases[] = {
      {"cold miss", 0, false, 5, DramModel::RowOutcome::kMiss, 60 + 100 + 16},
      {"open-row hit", 5, true, 5, DramModel::RowOutcome::kHit, 100 + 16},
      {"row conflict", 4, true, 5, DramModel::RowOutcome::kConflict, 40 + 60 + 100 + 16},
  };
  for (const Case& c : kCases) {
    DramModel dram(cfg, kLineBytes);
    Cycle issue = 0;
    if (c.prepare) {
      // Open prepared_row, then issue the measured access after the bank
      // and bus are idle again.
      const auto prep = dram.read(make_addr(cfg, 0, 0, c.prepared_row, 0), 0);
      issue = prep.done;
    }
    const auto got = dram.read(make_addr(cfg, 0, 0, c.target_row, 1), issue);
    EXPECT_EQ(got.outcome, c.want) << c.name;
    EXPECT_EQ(got.done - issue, c.want_latency) << c.name;
  }
  EXPECT_EQ(DramModel(cfg, kLineBytes).transfer_cycles(), 16u);
}

TEST(Dram, SameBankRequestsSerialise) {
  const DramConfig cfg = small_config();
  DramModel dram(cfg, kLineBytes);
  // Two conflicting rows of one bank, both issued at cycle 0: the second
  // request waits for the first's row command to finish, then pays the
  // full conflict penalty on top of it.
  const auto first = dram.read(make_addr(cfg, 0, 0, 1, 0), 0);
  EXPECT_EQ(first.outcome, DramModel::RowOutcome::kMiss);
  const Cycle first_cmd_done = dram.bank_busy_until(0, 0);  // data_at, pre-transfer
  const auto second = dram.read(make_addr(cfg, 0, 0, 2, 0), 0);
  EXPECT_EQ(second.outcome, DramModel::RowOutcome::kConflict);
  EXPECT_EQ(second.done, first_cmd_done + 40 + 60 + 100 + 16);
  EXPECT_GT(second.done, first.done);
}

TEST(Dram, DistinctBanksOverlapButShareTheChannelBus) {
  const DramConfig cfg = small_config();
  DramModel dram(cfg, kLineBytes);
  // Same channel, different banks: row commands overlap (both cold misses
  // resolve data at cycle 160), the 16-cycle transfers serialise on the bus.
  const auto a = dram.read(make_addr(cfg, 0, 0, 0, 0), 0);
  const auto b = dram.read(make_addr(cfg, 0, 1, 0, 0), 0);
  EXPECT_EQ(a.done, 160u + 16u);
  EXPECT_EQ(b.done, a.done + 16);
}

TEST(Dram, DistinctChannelsFullyOverlap) {
  const DramConfig cfg = small_config();
  DramModel dram(cfg, kLineBytes);
  const auto a = dram.read(make_addr(cfg, 0, 0, 0, 0), 0);
  const auto b = dram.read(make_addr(cfg, 1, 0, 0, 0), 0);
  EXPECT_EQ(a.done, b.done);
}

TEST(Dram, WritebackOccupiesBankAndBus) {
  const DramConfig cfg = small_config();
  DramModel dram(cfg, kLineBytes);
  dram.write(make_addr(cfg, 0, 0, 7, 0), 0);
  // A read behind the writeback on the same bank pays the bank busy window
  // plus its own (hit) latency; the bus slot is consumed too.
  const auto rd = dram.read(make_addr(cfg, 0, 0, 7, 1), 0);
  EXPECT_EQ(rd.outcome, DramModel::RowOutcome::kHit);
  EXPECT_EQ(rd.done, 160u + 100u + 16u);
  EXPECT_EQ(dram.stats().writebacks, 1u);
  EXPECT_EQ(dram.stats().reads, 1u);
}

TEST(Dram, ClosedPagePaysActivateEveryTimeAndAuditsClean) {
  DramConfig cfg = small_config();
  cfg.open_page = false;
  DramModel dram(cfg, kLineBytes);
  const Addr addr = make_addr(cfg, 0, 0, 3, 0);
  const auto first = dram.read(addr, 0);
  EXPECT_EQ(first.outcome, DramModel::RowOutcome::kMiss);
  EXPECT_FALSE(dram.bank_row_open(0, 0));
  // Same row again, bank idle: still a miss (auto-precharged), and the bank
  // was additionally busy tRP past the first access's data.
  const auto second = dram.read(addr, 1000);
  EXPECT_EQ(second.outcome, DramModel::RowOutcome::kMiss);
  EXPECT_EQ(dram.audit_check(), "");
}

TEST(Dram, CriticalBytesZeroTransfersTheFullLine) {
  DramConfig cfg = small_config();
  cfg.critical_bytes = 0;
  EXPECT_EQ(DramModel(cfg, kLineBytes).transfer_cycles(), 64u / 8u * 2u);
}

TEST(Dram, OutcomeCountersConserveAcrossMixedTraffic) {
  const DramConfig cfg = small_config();
  DramModel dram(cfg, kLineBytes);
  u64 x = 0x2545F4914F6CDD1Dull;
  Cycle when = 0;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;  // xorshift: deterministic pseudo-random traffic
    const Addr addr = static_cast<Addr>(x) & 0xFFFFF;
    if ((x >> 60) & 1)
      dram.write(addr, when);
    else
      dram.read(addr, when);
    when += static_cast<Cycle>((x >> 32) & 0x3F);
  }
  const auto& s = dram.stats();
  EXPECT_EQ(s.row_hits + s.row_misses + s.row_conflicts, s.reads + s.writebacks);
  EXPECT_EQ(dram.audit_check(), "");
}

// Determinism contract: the model is a pure function of its access history.
// Replaying an identical sequence on a fresh instance reproduces every
// completion cycle; interleaving two single-channel streams in a different
// relative order leaves each stream's timings untouched (channels share no
// state).
TEST(Dram, ReplayIsDeterministicAndChannelsCommute) {
  const DramConfig cfg = small_config();
  struct Req {
    Addr addr;
    Cycle when;
    bool is_write;
  };
  std::vector<Req> trace;
  u64 x = 0x9E3779B97F4A7C15ull;
  Cycle when = 0;
  for (int i = 0; i < 200; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    trace.push_back({static_cast<Addr>(x) & 0x7FFFF, when, ((x >> 59) & 1) != 0});
    when += static_cast<Cycle>((x >> 40) & 0x1F);
  }
  auto run = [&](DramModel& dram, const std::vector<Req>& t) {
    std::vector<Cycle> done;
    for (const Req& r : t)
      done.push_back(r.is_write ? dram.write(r.addr, r.when).done
                                : dram.read(r.addr, r.when).done);
    return done;
  };

  DramModel a(cfg, kLineBytes), b(cfg, kLineBytes);
  EXPECT_EQ(run(a, trace), run(b, trace));
  EXPECT_EQ(a.stats().row_hits, b.stats().row_hits);

  // Split by channel, replay each stream alone: per-request completions
  // must match the interleaved run (cross-channel requests are independent).
  for (u32 ch = 0; ch < cfg.channels; ++ch) {
    std::vector<Req> stream;
    std::vector<Cycle> interleaved;
    DramModel full(cfg, kLineBytes);
    for (const Req& r : trace) {
      const Cycle done = r.is_write ? full.write(r.addr, r.when).done
                                    : full.read(r.addr, r.when).done;
      if (full.map(r.addr).channel == ch) {
        stream.push_back(r);
        interleaved.push_back(done);
      }
    }
    DramModel alone(cfg, kLineBytes);
    EXPECT_EQ(run(alone, stream), interleaved) << "channel " << ch;
  }
}

TEST(Dram, ResetRestoresColdState) {
  const DramConfig cfg = small_config();
  DramModel dram(cfg, kLineBytes);
  const Addr addr = make_addr(cfg, 1, 2, 9, 0);
  const auto first = dram.read(addr, 0);
  dram.reset();
  EXPECT_FALSE(dram.bank_row_open(1, 2));
  EXPECT_EQ(dram.bank_busy_until(1, 2), 0u);
  const auto again = dram.read(addr, 0);
  EXPECT_EQ(again.done, first.done);
  EXPECT_EQ(again.outcome, DramModel::RowOutcome::kMiss);
}

}  // namespace
}  // namespace tlrob
