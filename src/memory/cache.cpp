#include "memory/cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace tlrob {
namespace {

u32 log2_pow2(u64 v) {
  u32 s = 0;
  while ((v >> s) > 1) ++s;
  return s;
}

}  // namespace

Cache::Cache(std::string name, const CacheGeometry& geo) : name_(std::move(name)), geo_(geo) {
  if (geo.line_bytes == 0 || (geo.line_bytes & (geo.line_bytes - 1)) != 0)
    throw std::invalid_argument(name_ + ": line size must be a power of two");
  const u64 lines = geo.size_bytes / geo.line_bytes;
  if (geo.ways == 0 || lines % geo.ways != 0)
    throw std::invalid_argument(name_ + ": line count must divide by ways");
  sets_ = static_cast<u32>(lines / geo.ways);
  if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
    throw std::invalid_argument(name_ + ": set count must be a nonzero power of two");
  line_shift_ = log2_pow2(geo.line_bytes);
  set_shift_ = log2_pow2(sets_);
  set_mask_ = sets_ - 1;
  tags_.assign(lines, 0);
  ready_at_.assign(lines, 0);
  lru_.assign(lines, 0);
  flags_.assign(lines, 0);
}

bool Cache::fill(Addr addr, Cycle now, Cycle ready_at, bool from_memory, bool* evicted_dirty,
                 Addr* evicted_addr) {
  if (evicted_dirty) *evicted_dirty = false;

  const u32 hit = find(addr);
  if (hit != kNotFound) {  // refresh an existing/in-flight line
    ready_at_[hit] = std::max(ready_at_[hit], ready_at);
    return true;
  }

  // Victimise the LRU line whose fill has completed; in-flight lines are
  // locked. If every way is in flight, the access bypasses this level.
  const u32 base = static_cast<u32>(set_of(addr) * geo_.ways);
  u32 victim = kNotFound;
  for (u32 w = 0; w < geo_.ways; ++w) {
    const u32 i = base + w;
    if ((flags_[i] & kValid) == 0) {
      victim = i;
      break;
    }
    if (ready_at_[i] > now) continue;
    if (victim == kNotFound || lru_[i] < lru_[victim]) victim = i;
  }
  if (victim == kNotFound) {
    ++stats_.fill_bypass;
    return false;
  }
  const u8 vf = flags_[victim];
  if ((vf & kValid) != 0 && (vf & kDirty) != 0 && evicted_dirty) {
    *evicted_dirty = true;
    if (evicted_addr)
      *evicted_addr = ((tags_[victim] << set_shift_) | set_of(addr)) << line_shift_;
  }
  if ((vf & kValid) != 0) ++stats_.evictions;
  tags_[victim] = tag_of(addr);
  ready_at_[victim] = ready_at;
  flags_[victim] = static_cast<u8>(kValid | (from_memory ? kFromMemory : 0));
  lru_[victim] = ++stamp_;
  return true;
}

}  // namespace tlrob
