// gshare conditional-branch direction predictor (Table 1: 2K-entry PHT,
// 10-bit global history per thread).
//
// History is maintained *speculatively* at prediction time; a caller that
// squashes a branch restores the pre-branch history snapshot the predictor
// returned (the simulator stashes it in the DynInst).
#pragma once

#include "branch/bimodal.hpp"
#include "common/types.hpp"

namespace tlrob {

class Gshare {
 public:
  Gshare(u32 pht_entries, u32 history_bits, u32 num_threads);

  struct Prediction {
    bool taken;
    u16 history_before;  // snapshot for squash recovery
  };

  /// Predicts and speculatively shifts the predicted outcome into the
  /// thread's global history. Inline: runs on every fetched conditional
  /// branch.
  Prediction predict(ThreadId tid, Addr pc) {
    u16& h = histories_[tid];
    Prediction p;
    p.history_before = h;
    p.taken = pht_.predict(index(pc, h));
    h = static_cast<u16>(((h << 1) | (p.taken ? 1 : 0)) & history_mask_);
    return p;
  }

  /// Trains the PHT for the (pc, history) the prediction used.
  void update(Addr pc, u16 history_at_predict, bool taken) {
    pht_.update(index(pc, history_at_predict), taken);
  }

  /// Restores the thread's history after a squash: the caller passes the
  /// snapshot taken at prediction of the *mispredicted* branch plus its
  /// actual outcome (which is shifted back in).
  void recover(ThreadId tid, u16 history_before_branch, bool actual_taken) {
    histories_[tid] = static_cast<u16>(
        ((history_before_branch << 1) | (actual_taken ? 1 : 0)) & history_mask_);
  }

  u16 history(ThreadId tid) const { return histories_[tid]; }

 private:
  u64 index(Addr pc, u16 history) const { return (pc >> 2) ^ history; }

  BimodalTable pht_;
  u16 history_mask_;
  std::vector<u16> histories_;
};

}  // namespace tlrob
