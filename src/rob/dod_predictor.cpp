#include "rob/dod_predictor.hpp"

#include <stdexcept>

namespace tlrob {

DodPredictor::DodPredictor(u32 entries) : table_(entries), mask_(entries - 1) {
  if (entries == 0 || (entries & (entries - 1)) != 0)
    throw std::invalid_argument("DodPredictor size must be a power of two");
}

std::optional<u32> DodPredictor::predict(ThreadId tid, Addr pc) const {
  const Entry& e = table_[index(tid, pc)];
  if (!e.valid || e.tag != tag(tid, pc)) return std::nullopt;
  return e.count;
}

void DodPredictor::update(ThreadId tid, Addr pc, u32 count) {
  Entry& e = table_[index(tid, pc)];
  const u64 t = tag(tid, pc);
  if (e.valid && e.tag == t) {
    ++(e.count == count ? stats_.exact_repeats : stats_.value_changes);
  } else {
    ++stats_.cold_installs;
  }
  e.valid = true;
  e.tag = t;
  e.count = count;
}

}  // namespace tlrob
