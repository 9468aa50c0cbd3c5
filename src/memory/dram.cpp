#include "memory/dram.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/chrome_trace.hpp"

namespace tlrob {
namespace {

u32 log2_pow2(u64 v) {
  u32 s = 0;
  while ((v >> s) > 1) ++s;
  return s;
}

bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

DramModel::DramModel(const DramConfig& cfg, u32 line_bytes) : cfg_(cfg) {
  if (!is_pow2(cfg.channels) || !is_pow2(cfg.banks_per_channel))
    throw std::invalid_argument("dram: channels and banks must be powers of two");
  if (!is_pow2(line_bytes) || !is_pow2(cfg.row_bytes) || cfg.row_bytes < line_bytes)
    throw std::invalid_argument("dram: row/line sizes must be powers of two, row >= line");
  line_shift_ = log2_pow2(line_bytes);
  channel_shift_ = log2_pow2(cfg.channels);
  bank_shift_ = log2_pow2(cfg.banks_per_channel);
  lines_per_row_ = cfg.row_bytes / line_bytes;
  row_group_shift_ = log2_pow2(lines_per_row_);
  const u32 unit = cfg.critical_bytes > 0 ? std::min(cfg.critical_bytes, line_bytes) : line_bytes;
  const u32 chunks = std::max<u32>(1, unit / std::max<u32>(1, cfg.bus_bytes));
  transfer_ = static_cast<Cycle>(chunks) * cfg.interchunk;
  const u32 banks = cfg.channels * cfg.banks_per_channel;
  bank_busy_until_.assign(banks, 0);
  bank_open_row_.assign(banks, 0);
  bank_row_valid_.assign(banks, 0);
  bus_free_.assign(cfg.channels, 0);
}

DramModel::BankRef DramModel::map(Addr addr) const {
  const u64 line = addr >> line_shift_;
  const u32 channel = static_cast<u32>(line & (cfg_.channels - 1));
  const u64 per_channel = line >> channel_shift_;
  const u64 row_group = per_channel >> row_group_shift_;
  const u32 bank = static_cast<u32>(row_group & (cfg_.banks_per_channel - 1));
  const u64 row = row_group >> bank_shift_;
  return {channel, bank, row};
}

DramModel::Timing DramModel::access_bank(Addr addr, Cycle when) {
  const BankRef ref = map(addr);
  const u32 i = ref.channel * cfg_.banks_per_channel + ref.bank;
  const Cycle start = std::max(when, bank_busy_until_[i]);

  RowOutcome outcome;
  Cycle latency;
  if (bank_row_valid_[i] == 0) {
    outcome = RowOutcome::kMiss;
    latency = cfg_.trcd + cfg_.tcas;
  } else if (bank_open_row_[i] == ref.row) {
    outcome = RowOutcome::kHit;
    latency = cfg_.tcas;
  } else {
    outcome = RowOutcome::kConflict;
    latency = cfg_.trp + cfg_.trcd + cfg_.tcas;
  }
  const Cycle data_at = start + latency;

  if (cfg_.open_page) {
    bank_open_row_[i] = ref.row;
    bank_row_valid_[i] = 1;
    bank_busy_until_[i] = data_at;
  } else {
    // Auto-precharge: the bank closes after the access and pays the
    // precharge before it can serve the next request.
    bank_row_valid_[i] = 0;
    bank_busy_until_[i] = data_at + cfg_.trp;
  }

  switch (outcome) {
    case RowOutcome::kHit: ++stats_.row_hits; break;
    case RowOutcome::kMiss: ++stats_.row_misses; break;
    case RowOutcome::kConflict: ++stats_.row_conflicts; break;
  }
  if (trace_ != nullptr) {
    const char* name = outcome == RowOutcome::kHit     ? "row_hit"
                       : outcome == RowOutcome::kMiss  ? "row_open"
                                                       : "row_conflict";
    trace_->instant_event(static_cast<ThreadId>(i), name, start, {{"row", ref.row}});
  }
  return {data_at, outcome};
}

DramModel::Access DramModel::read(Addr addr, Cycle when) {
  const Timing t = access_bank(addr, when);
  const u32 ch = static_cast<u32>((addr >> line_shift_) & (cfg_.channels - 1));
  const Cycle transfer_start = std::max(t.data_at, bus_free_[ch]);
  const Cycle done = transfer_start + transfer_;
  bus_free_[ch] = done;
  ++stats_.reads;
  return {done, t.outcome, t.data_at};
}

DramModel::Access DramModel::write(Addr addr, Cycle when) {
  const Timing t = access_bank(addr, when);
  const u32 ch = static_cast<u32>((addr >> line_shift_) & (cfg_.channels - 1));
  const Cycle transfer_start = std::max(t.data_at, bus_free_[ch]);
  bus_free_[ch] = transfer_start + transfer_;
  ++stats_.writebacks;
  return {bus_free_[ch], t.outcome, t.data_at};
}

Cycle DramModel::bank_busy_until(u32 channel, u32 bank) const {
  return bank_busy_until_[channel * cfg_.banks_per_channel + bank];
}

bool DramModel::bank_row_open(u32 channel, u32 bank) const {
  return bank_row_valid_[channel * cfg_.banks_per_channel + bank] != 0;
}

std::string DramModel::audit_check() const {
  const u64 reads = stats_.reads;
  const u64 writes = stats_.writebacks;
  const u64 outcomes = stats_.row_hits + stats_.row_misses + stats_.row_conflicts;
  if (outcomes != reads + writes) {
    std::ostringstream os;
    os << "dram: row outcomes (" << outcomes << ") != reads+writebacks (" << reads + writes
       << ")";
    return os.str();
  }
  if (!cfg_.open_page) {
    for (u32 i = 0; i < bank_row_valid_.size(); ++i)
      if (bank_row_valid_[i] != 0) return "dram: closed-page bank holds an open row";
  }
  return {};
}

void DramModel::attach_chrome_trace(obs::ChromeTraceWriter* w) {
  trace_ = w;
  if (trace_ == nullptr) return;
  for (u32 ch = 0; ch < cfg_.channels; ++ch)
    for (u32 b = 0; b < cfg_.banks_per_channel; ++b) {
      const u32 tid = ch * cfg_.banks_per_channel + b;
      trace_->set_thread_name(static_cast<ThreadId>(tid),
                              "dram ch" + std::to_string(ch) + " bank" + std::to_string(b));
    }
}

void DramModel::reset() {
  std::fill(bank_busy_until_.begin(), bank_busy_until_.end(), 0);
  std::fill(bank_open_row_.begin(), bank_open_row_.end(), 0);
  std::fill(bank_row_valid_.begin(), bank_row_valid_.end(), 0);
  std::fill(bus_free_.begin(), bus_free_.end(), 0);
}

}  // namespace tlrob
