#include "rob/two_level_rob.hpp"

#include <stdexcept>

namespace tlrob {

void SecondLevelRob::allocate(ThreadId t, Cycle now) {
  if (!available()) throw std::logic_error("SecondLevelRob::allocate while not available");
  owner_ = t;
  acquired_at_ = now;
  ++allocations_;
}

void SecondLevelRob::release(Cycle now) {
  if (owner_ == kNoOwner) throw std::logic_error("SecondLevelRob::release without owner");
  busy_accum_ += now - acquired_at_;
  owner_ = kNoOwner;
}

void SecondLevelRob::reset_accounting(Cycle now) {
  busy_accum_ = 0;
  allocations_ = owner_ == kNoOwner ? 0 : 1;
  if (owner_ != kNoOwner) acquired_at_ = now;
}

u64 SecondLevelRob::busy_cycles(Cycle now) const {
  u64 busy = busy_accum_;
  if (owner_ != kNoOwner) busy += now - acquired_at_;
  return busy;
}

}  // namespace tlrob
