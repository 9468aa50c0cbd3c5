// Set-associative cache with a latency-chain ("ready-at") timing model.
//
// Instead of discrete fill events, every line carries the cycle at which its
// data becomes available. A line whose ready_at lies in the future is an
// in-flight fill: a new access to it *merges* (MSHR behaviour) and completes
// when the fill does. This models non-blocking caches with per-line MSHRs at
// a fraction of the implementation cost of an event-driven cache, while
// preserving the properties the paper's mechanism depends on — overlapping
// misses, secondary-miss merging, and the visibility of "this access had to
// go to memory".
//
// Storage is structure-of-arrays: the way-scan in find() only touches the
// tag and flag arrays, so a probe pulls one or two cache lines of host
// memory instead of striding across fat per-line records; ready_at/lru are
// read only on a match. Set and tag extraction are pure shifts (geometry is
// validated to powers of two at construction).
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace tlrob {

struct CacheStats {
  u64 accesses = 0;
  u64 misses = 0;
  u64 mshr_merges = 0;
  u64 fill_bypass = 0;
  u64 evictions = 0;
};

inline constexpr auto kCacheStatFields = std::to_array<StatField<CacheStats>>({
    {&CacheStats::accesses, "accesses"},
    {&CacheStats::misses, "misses"},
    {&CacheStats::mshr_merges, "mshr_merges"},
    {&CacheStats::fill_bypass, "fill_bypass"},
    {&CacheStats::evictions, "evictions"},
});
static_assert(names_every_field(kCacheStatFields));

struct CacheGeometry {
  u64 size_bytes = 32 << 10;
  u32 ways = 4;
  u32 line_bytes = 32;
  u32 hit_latency = 1;
};

class Cache {
 public:
  Cache(std::string name, const CacheGeometry& geo);

  struct Probe {
    bool present = false;     // tag match (line resident or in flight)
    Cycle ready_at = 0;       // when the line's data is/was available
    bool fill_from_memory = false;  // in-flight fill originates at DRAM
  };

  /// Tag lookup at cycle `now`; touches LRU on a match. Defined inline:
  /// this is the hottest call in the memory system (every access, every
  /// level), and the hit path must not pay a call.
  Probe probe(Addr addr, Cycle now) {
    ++stats_.accesses;
    Probe p;
    const u32 i = find(addr);
    if (i != kNotFound) {
      p.present = true;
      p.ready_at = ready_at_[i];
      p.fill_from_memory = (flags_[i] & kFromMemory) != 0;
      lru_[i] = ++stamp_;
      if (p.ready_at > now) ++stats_.mshr_merges;
    } else {
      ++stats_.misses;
    }
    return p;
  }

  /// Installs `addr`'s line with data arriving at `ready_at`. Returns true
  /// if a line was allocated; false when every way of the set holds an
  /// in-flight fill (the access then bypasses this level). The evicted dirty
  /// line, if any, is reported through `evicted_dirty`; when `evicted_addr`
  /// is non-null it receives the victim's line-aligned address (valid only
  /// when `*evicted_dirty` was set), which the CMP backend needs to route
  /// the writeback to the correct DRAM bank.
  bool fill(Addr addr, Cycle now, Cycle ready_at, bool from_memory, bool* evicted_dirty,
            Addr* evicted_addr = nullptr);

  /// Marks the line dirty (stores); returns whether the line was resident
  /// (false = silently dropped, the caller may forward the write downward).
  bool mark_dirty(Addr addr) {
    const u32 i = find(addr);
    if (i == kNotFound) return false;
    flags_[i] |= kDirty;
    return true;
  }

  const CacheGeometry& geometry() const { return geo_; }
  u32 sets() const { return sets_; }
  const std::string& name() const { return name_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  static constexpr u32 kNotFound = ~0u;
  static constexpr u8 kValid = 1;
  static constexpr u8 kDirty = 2;
  static constexpr u8 kFromMemory = 4;

  u64 set_of(Addr addr) const { return (addr >> line_shift_) & set_mask_; }
  u64 tag_of(Addr addr) const { return (addr >> line_shift_) >> set_shift_; }

  /// Way-scan over the flat tag/flag arrays; returns the line's index into
  /// the SoA columns, or kNotFound.
  u32 find(Addr addr) const {
    const u64 line = addr >> line_shift_;
    const u32 base = static_cast<u32>((line & set_mask_) * geo_.ways);
    const u64 tag = line >> set_shift_;
    for (u32 w = 0; w < geo_.ways; ++w) {
      const u32 i = base + w;
      if ((flags_[i] & kValid) != 0 && tags_[i] == tag) return i;
    }
    return kNotFound;
  }

  std::string name_;
  CacheGeometry geo_;
  u32 sets_;
  u32 line_shift_;  // log2(line_bytes)
  u32 set_shift_;   // log2(sets)
  u64 set_mask_;    // sets - 1
  // Structure-of-arrays line state, set-major ([set * ways + way]).
  std::vector<u64> tags_;
  std::vector<Cycle> ready_at_;
  std::vector<u64> lru_;   // last-touch stamp
  std::vector<u8> flags_;  // kValid | kDirty | kFromMemory
  u64 stamp_ = 0;
  CacheStats stats_;
};

}  // namespace tlrob
