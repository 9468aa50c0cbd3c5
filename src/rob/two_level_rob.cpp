#include "rob/two_level_rob.hpp"

#include <algorithm>
#include <stdexcept>

namespace tlrob {

void SecondLevelRob::allocate(ThreadId t, Cycle now) {
  if (!available()) throw std::logic_error("SecondLevelRob::allocate while not available");
  owner_ = t;
  acquired_at_ = now;
  ++grants_[t];
}

void SecondLevelRob::release(Cycle now) {
  if (owner_ == kNoOwner) throw std::logic_error("SecondLevelRob::release without owner");
  held_[owner_] += now - acquired_at_;
  owner_ = kNoOwner;
}

void SecondLevelRob::reset_accounting(Cycle now) {
  std::ranges::fill(grants_, 0);
  std::ranges::fill(held_, 0);
  if (owner_ == kNoOwner) return;
  grants_[owner_] = 1;
  acquired_at_ = now;
}

std::vector<u64> SecondLevelRob::held_cycles(Cycle now) const {
  std::vector<u64> held = held_;
  if (owner_ != kNoOwner) held[owner_] += now - acquired_at_;
  return held;
}

u64 SecondLevelRob::busy_cycles(Cycle now) const {
  const std::vector<u64> held = held_cycles(now);
  return std::reduce(held.begin(), held.end(), u64{0});
}

}  // namespace tlrob
