#include "branch/gshare.hpp"

namespace tlrob {

Gshare::Gshare(u32 pht_entries, u32 history_bits, u32 num_threads)
    : pht_(pht_entries),
      history_mask_(static_cast<u16>((1u << history_bits) - 1)),
      histories_(num_threads, 0) {}

}  // namespace tlrob
