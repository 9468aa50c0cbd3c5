#include "branch/predictor.hpp"

namespace tlrob {

BranchPredictor::BranchPredictor(const PredictorConfig& cfg, u32 num_threads)
    : gshare_(cfg.gshare_entries, cfg.history_bits, num_threads),
      btb_(cfg.btb_entries, cfg.btb_ways),
      ras_(num_threads) {}

BranchPrediction BranchPredictor::predict(ThreadId tid, const StaticInst& si,
                                          Addr static_target, Addr fallthrough,
                                          Addr return_pc) {
  BranchPrediction p;
  p.ras_checkpoint = ras_[tid].checkpoint();
  if (btb_.lookup(tid, si.pc).has_value()) ++stats_.btb_hits;

  switch (si.op) {
    case OpClass::kBranch: {
      const auto g = gshare_.predict(tid, si.pc);
      p.taken = g.taken;
      p.history_before = g.history_before;
      p.target = g.taken ? static_target : fallthrough;
      break;
    }
    case OpClass::kJump:
      p.taken = true;
      p.target = static_target;
      break;
    case OpClass::kCall:
      p.taken = true;
      p.target = static_target;
      ras_[tid].push(return_pc);
      break;
    case OpClass::kReturn:
      p.taken = true;
      p.target = ras_[tid].pop();
      p.used_ras = true;
      break;
    default:
      p.taken = false;
      p.target = fallthrough;
      break;
  }
  return p;
}

void BranchPredictor::train(ThreadId tid, const StaticInst& si, const BranchPrediction& pred,
                            bool actual_taken, Addr actual_target) {
  if (si.op == OpClass::kBranch) {
    gshare_.update(si.pc, pred.history_before, actual_taken);
    ++stats_.cond;
    if (pred.taken != actual_taken) ++stats_.cond_mispredict;
  }
  if (si.op == OpClass::kReturn) {
    ++stats_.returns;
    if (pred.target != actual_target) ++stats_.ras_mispredict;
  }
  if (actual_taken) btb_.update(tid, si.pc, actual_target);
}

void BranchPredictor::recover(ThreadId tid, const StaticInst& si, const BranchPrediction& pred,
                              bool actual_taken) {
  if (si.op == OpClass::kBranch)
    gshare_.recover(tid, pred.history_before, actual_taken);
  // Rewind wrong-path push/pop activity, then re-apply this instruction's own
  // architectural RAS effect (a mispredicted return still pops).
  ras_[tid].restore(pred.ras_checkpoint);
  if (si.op == OpClass::kReturn) ras_[tid].pop();
}

}  // namespace tlrob
