#include "obs/self_profile.hpp"

#include <cstdio>

namespace tlrob::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kEvents: return "events";
    case Phase::kCommit: return "commit";
    case Phase::kIssue: return "issue";
    case Phase::kDispatch: return "dispatch";
    case Phase::kFetch: return "fetch";
    case Phase::kEarlyRelease: return "early_release";
    case Phase::kController: return "controller";
    case Phase::kAudit: return "audit";
    case Phase::kSample: return "sample";
    case Phase::kMemory: return "memory";
    case Phase::kPredict: return "predict";
    case Phase::kLoop: return "loop";
    case Phase::kCount: break;
  }
  return "unknown";
}

SelfProfiler::SelfProfiler()
    : target_(&current_phase), start_(std::chrono::steady_clock::now()) {
  sampler_ = std::thread([this] {
    do {
      std::this_thread::sleep_for(kSamplePeriod);
      ++samples_[static_cast<size_t>(target_->load(std::memory_order_relaxed))];
    } while (!stopping_.load(std::memory_order_acquire));
  });
}

void SelfProfiler::stop() {
  if (!sampler_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  sampler_.join();
  wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

u64 SelfProfiler::total_samples() const {
  u64 total = 0;
  for (const u64 n : samples_) total += n;
  return total;
}

void SelfProfiler::print(std::ostream& os, u64 executed_cycles) const {
  const u64 total = total_samples();
  const double wall_ms = wall_seconds_ * 1e3;
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %10s %7s %12s %10s\n", "phase", "samples", "share",
                "ms", "ns/cycle");
  os << line;
  for (size_t i = 0; i < samples_.size(); ++i) {
    const double share =
        total == 0 ? 0.0 : static_cast<double>(samples_[i]) / static_cast<double>(total);
    const double per_cycle =
        executed_cycles == 0 ? 0.0 : share * wall_ms * 1e6 / static_cast<double>(executed_cycles);
    std::snprintf(line, sizeof(line), "%-14s %10llu %6.1f%% %12.3f %10.1f\n",
                  phase_name(static_cast<Phase>(i)), static_cast<unsigned long long>(samples_[i]),
                  100.0 * share, share * wall_ms, per_cycle);
    os << line;
  }
  std::snprintf(line, sizeof(line), "%-14s %10llu %7s %12.3f  (every %lld us)\n", "sampled",
                static_cast<unsigned long long>(total), "", wall_ms,
                static_cast<long long>(kSamplePeriod.count()));
  os << line;
}

}  // namespace tlrob::obs
