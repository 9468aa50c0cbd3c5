#include "pipeline/fetch_policy.hpp"

namespace tlrob {

void fetch_order(FetchPolicyKind kind, const std::vector<u32>& icount, Cycle now,
                 std::vector<ThreadId>& out) {
  const u32 n = static_cast<u32>(icount.size());
  out.resize(n);
  if (kind == FetchPolicyKind::kRoundRobin) {
    ThreadId t = static_cast<ThreadId>(now % n);
    for (u32 i = 0; i < n; ++i, t = t + 1 == n ? 0 : t + 1) out[i] = t;
    return;
  }
  // Stable insertion sort: n is the thread count (<= 8) and this runs once
  // per executed tick, so the temporary-buffer std::stable_sort was
  // measurable on the hot path.
  for (u32 i = 0; i < n; ++i) {
    u32 j = i;
    for (; j > 0 && icount[out[j - 1]] > icount[i]; --j) out[j] = out[j - 1];
    out[j] = static_cast<ThreadId>(i);
  }
}

}  // namespace tlrob
