// Degree-of-Dependence (DoD) predictor for the predictive (P-ROB) scheme.
//
// A PC-indexed last-value predictor (§4.2): the number of dependents of a
// static LOAD is predicted to equal the count observed at its previous
// dynamic instance. The paper notes the count is constant per control-flow
// path, so last-value prediction is accurate whenever the post-load path
// repeats. The table stores the full count (not a thresholded bit), which
// lets experiments vary the threshold without retraining.
#pragma once

#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace tlrob {

struct DodPredictorStats {
  u64 exact_repeats = 0;
  u64 value_changes = 0;
  u64 cold_installs = 0;
};

inline constexpr auto kDodPredictorStatFields = std::to_array<StatField<DodPredictorStats>>({
    {&DodPredictorStats::exact_repeats, "exact_repeats"},
    {&DodPredictorStats::value_changes, "value_changes"},
    {&DodPredictorStats::cold_installs, "cold_installs"},
});
static_assert(names_every_field(kDodPredictorStatFields));

class DodPredictor {
 public:
  /// `entries` must be a power of two. Tags disambiguate (tid, pc) so the
  /// table can be shared by all threads.
  explicit DodPredictor(u32 entries = 4096);

  /// Predicted dependent count for the load at `pc`; nullopt if this static
  /// load has not been observed yet (no allocation is made in that case).
  std::optional<u32> predict(ThreadId tid, Addr pc) const;

  /// Verification/update with the actual count (taken shortly before the
  /// miss service completes).
  void update(ThreadId tid, Addr pc, u32 count);

  const DodPredictorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct Entry {
    bool valid = false;
    u64 tag = 0;
    u32 count = 0;
  };

  u64 index(ThreadId tid, Addr pc) const { return ((pc >> 2) ^ (u64{tid} << 9)) & mask_; }
  u64 tag(ThreadId tid, Addr pc) const { return (pc >> 2) ^ (u64{tid} << 56); }

  std::vector<Entry> table_;
  u64 mask_;
  DodPredictorStats stats_;
};

}  // namespace tlrob
