// SMT fetch policies: round-robin, ICOUNT, STALL, FLUSH, and DCRA-gated
// ICOUNT (the paper's baseline).
//
// A policy does two things each cycle: ranks threads for fetch priority and
// vetoes fetching for threads it wants gated. FLUSH additionally asks the
// core to squash a thread's post-miss instructions when an L2 miss is
// detected (implemented in the core as un-dispatch; see DESIGN.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/names.hpp"
#include "common/types.hpp"

namespace tlrob {

enum class FetchPolicyKind : u8 { kRoundRobin, kIcount, kStall, kFlush, kDcra };

/// The policy= vocabulary; "rr" is an alias.
inline constexpr EnumName<FetchPolicyKind> kFetchPolicyNames[] = {
    {FetchPolicyKind::kDcra, "dcra"},   {FetchPolicyKind::kIcount, "icount"},
    {FetchPolicyKind::kStall, "stall"}, {FetchPolicyKind::kFlush, "flush"},
    {FetchPolicyKind::kRoundRobin, "round_robin"}, {FetchPolicyKind::kRoundRobin, "rr"}};

inline const char* fetch_policy_name(FetchPolicyKind kind) {
  return enum_row(kFetchPolicyNames, kind).name;
}

inline FetchPolicyKind parse_fetch_policy(const std::string& name) {
  return parse_enum(kFetchPolicyNames, name, "fetch policy");
}

/// Per-thread snapshot handed to policies each cycle.
struct ThreadFetchView {
  u32 frontend_count = 0;   // fetched, not yet dispatched
  u32 iq_count = 0;         // occupying issue-queue slots
  u32 outstanding_l2 = 0;   // in-flight loads that missed L2
};

class FetchPolicy {
 public:
  virtual ~FetchPolicy() = default;

  /// Fills `out` with thread ids highest-priority first. `out` is cleared
  /// first; its capacity is retained across calls, so the per-cycle ranking
  /// is allocation-free with a reused buffer. Policies are stateless between
  /// calls.
  virtual void order(const std::vector<ThreadFetchView>& views, Cycle now,
                     std::vector<ThreadId>& out) = 0;

  /// Gate: false forbids fetching for the thread this cycle.
  virtual bool may_fetch(ThreadId tid, const std::vector<ThreadFetchView>& views) {
    (void)tid;
    (void)views;
    return true;
  }

  /// FLUSH-style policies return true: the core squashes a thread's
  /// instructions younger than a load when its L2 miss is detected.
  virtual bool flush_on_l2_miss() const { return false; }

  virtual FetchPolicyKind kind() const = 0;

  static std::unique_ptr<FetchPolicy> create(FetchPolicyKind kind);
};

}  // namespace tlrob
