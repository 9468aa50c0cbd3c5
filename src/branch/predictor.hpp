// Composite per-core front-end predictor: gshare direction prediction, BTB,
// and per-thread return address stacks.
//
// Model notes (documented in DESIGN.md): direct branch/jump/call targets are
// available to our short front end at fetch (decode-time target computation),
// so the BTB influences statistics but not correctness; the two mispredict
// sources that cost cycles are conditional-branch *direction* (gshare) and
// *return* targets (RAS).
#pragma once

#include <vector>

#include "branch/btb.hpp"
#include "branch/gshare.hpp"
#include "branch/ras.hpp"
#include "common/stats.hpp"
#include "isa/static_inst.hpp"

namespace tlrob {

struct PredictorConfig {
  u32 gshare_entries = 2048;  // Table 1: 2K-entry gShare
  u32 history_bits = 10;      // 10-bit global history per thread
  u32 btb_entries = 2048;     // 2048-entry, 2-way
  u32 btb_ways = 2;
};

/// Fields ordered by size: every DynInst carries one, so 16 bytes, not 32.
struct BranchPrediction {
  Addr target = 0;          // predicted target (returns: RAS; else static)
  u32 ras_checkpoint = 0;   // RAS top-of-stack snapshot
  u16 history_before = 0;   // gshare snapshot (conditional branches)
  bool taken = true;        // predicted direction (unconditional ops: true)
  bool used_ras = false;
};
static_assert(sizeof(BranchPrediction) == 16);

struct BranchStats {
  u64 btb_hits = 0;
  u64 cond = 0;
  u64 cond_mispredict = 0;
  u64 returns = 0;
  u64 ras_mispredict = 0;
};

inline constexpr auto kBranchStatFields = std::to_array<StatField<BranchStats>>({
    {&BranchStats::btb_hits, "btb.hits"},
    {&BranchStats::cond, "branch.cond"},
    {&BranchStats::cond_mispredict, "branch.cond_mispredict"},
    {&BranchStats::returns, "branch.returns"},
    {&BranchStats::ras_mispredict, "branch.ras_mispredict"},
});
static_assert(names_every_field(kBranchStatFields));

class BranchPredictor {
 public:
  BranchPredictor(const PredictorConfig& cfg, u32 num_threads);

  /// Predicts a control instruction at fetch. `static_target` is the taken
  /// target PC (direct ops), `fallthrough` the not-taken successor PC, and
  /// `return_pc` the PC pushed for calls.
  BranchPrediction predict(ThreadId tid, const StaticInst& si, Addr static_target,
                           Addr fallthrough, Addr return_pc);

  /// Trains tables when a correct-path control instruction resolves.
  void train(ThreadId tid, const StaticInst& si, const BranchPrediction& pred,
             bool actual_taken, Addr actual_target);

  /// Restores per-thread speculative state after the squash caused by a
  /// mispredicted control instruction.
  void recover(ThreadId tid, const StaticInst& si, const BranchPrediction& pred,
               bool actual_taken);

  const BranchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  ReturnAddressStack& ras(ThreadId tid) { return ras_[tid]; }

 private:
  Gshare gshare_;
  Btb btb_;
  std::vector<ReturnAddressStack> ras_;
  BranchStats stats_;
};

}  // namespace tlrob
