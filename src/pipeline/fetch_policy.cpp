#include "pipeline/fetch_policy.hpp"

namespace tlrob {
namespace {

/// ICOUNT ordering: fewest instructions in the front end + issue queue first
/// (ties by thread id for determinism). Stable insertion sort: n is the
/// thread count (<= 8) and this runs once per executed tick, so the
/// temporary-buffer std::stable_sort was measurable on the hot path.
void icount_order(const std::vector<ThreadFetchView>& views, std::vector<ThreadId>& out) {
  const u32 n = static_cast<u32>(views.size());
  out.resize(n);
  for (u32 i = 0; i < n; ++i) {
    const u32 key = views[i].frontend_count + views[i].iq_count;
    u32 j = i;
    for (; j > 0; --j) {
      const ThreadId prev = out[j - 1];
      if (views[prev].frontend_count + views[prev].iq_count <= key) break;
      out[j] = prev;
    }
    out[j] = static_cast<ThreadId>(i);
  }
}

class RoundRobinPolicy final : public FetchPolicy {
 public:
  void order(const std::vector<ThreadFetchView>& views, Cycle now,
             std::vector<ThreadId>& out) override {
    const u32 n = static_cast<u32>(views.size());
    out.resize(n);
    for (u32 i = 0; i < n; ++i) out[i] = static_cast<ThreadId>((now + i) % n);
  }
  FetchPolicyKind kind() const override { return FetchPolicyKind::kRoundRobin; }
};

class IcountPolicy final : public FetchPolicy {
 public:
  void order(const std::vector<ThreadFetchView>& views, Cycle,
             std::vector<ThreadId>& out) override {
    icount_order(views, out);
  }
  FetchPolicyKind kind() const override { return FetchPolicyKind::kIcount; }
};

class StallPolicy : public FetchPolicy {
 public:
  void order(const std::vector<ThreadFetchView>& views, Cycle,
             std::vector<ThreadId>& out) override {
    icount_order(views, out);
  }
  bool may_fetch(ThreadId tid, const std::vector<ThreadFetchView>& views) override {
    return views[tid].outstanding_l2 == 0;
  }
  FetchPolicyKind kind() const override { return FetchPolicyKind::kStall; }
};

class FlushPolicy final : public StallPolicy {
 public:
  bool flush_on_l2_miss() const override { return true; }
  FetchPolicyKind kind() const override { return FetchPolicyKind::kFlush; }
};

/// ICOUNT-ordered fetch; DCRA's register guard applies at dispatch
/// (dcra_within_reg_guard).
class DcraPolicy final : public FetchPolicy {
 public:
  void order(const std::vector<ThreadFetchView>& views, Cycle,
             std::vector<ThreadId>& out) override {
    icount_order(views, out);
  }
  FetchPolicyKind kind() const override { return FetchPolicyKind::kDcra; }
};

}  // namespace

std::unique_ptr<FetchPolicy> FetchPolicy::create(FetchPolicyKind kind) {
  switch (kind) {
    case FetchPolicyKind::kRoundRobin: return std::make_unique<RoundRobinPolicy>();
    case FetchPolicyKind::kIcount: return std::make_unique<IcountPolicy>();
    case FetchPolicyKind::kStall: return std::make_unique<StallPolicy>();
    case FetchPolicyKind::kFlush: return std::make_unique<FlushPolicy>();
    case FetchPolicyKind::kDcra: return std::make_unique<DcraPolicy>();
  }
  return std::make_unique<IcountPolicy>();
}

}  // namespace tlrob
