// Hand-made one-thread traces for behaviour no synthetic SPEC profile
// reaches. Each is a Benchmark built from in-memory ChampSim records
// (trace::TraceWorkload::from_records), so a test runs it like any workload.
#pragma once

#include <string>
#include <vector>

#include "trace/champsim.hpp"
#include "trace/source.hpp"

namespace tlrob::hand_traces {

inline Benchmark from_records(const std::string& name,
                              const std::vector<trace::ChampSimRecord>& records) {
  return trace::trace_benchmark(trace::TraceWorkload::from_records(name, records));
}

/// `pcs` register-only records at consecutive PCs, replayed as one loop:
/// `pcs` * 4 bytes of code. 2048 PCs (8 KiB) fit the Table 1 64 KiB L1I and
/// thrash a 4 KiB one, which every synthetic program (at most 208 bytes of
/// code) never does.
inline Benchmark straight_line_code(u32 pcs) {
  std::vector<trace::ChampSimRecord> records(pcs);
  for (u32 i = 0; i < pcs; ++i) {
    records[i].ip = 0x400000 + 4 * Addr{i};
    records[i].dest_regs[0] = static_cast<u8>(1 + i % 8);
    records[i].src_regs[0] = static_cast<u8>(1 + (i + 7) % 8);
  }
  return from_records("straight_line_code", records);
}

/// A loop of 16 iterations of: store to line A_i, load from A_i, load from
/// line B_i. The first load always finds the older store to its address in
/// flight, so the core forwards it from the LSQ (no shipped workload has an
/// in-flight RAW dependence through memory). The B_i lie 256 KiB apart, all
/// in one set of the Table 1 L1D and L2, so every second load goes to
/// memory and the core idles and fast-forwards between misses.
inline Benchmark store_then_load() {
  std::vector<trace::ChampSimRecord> records;
  for (u32 i = 0; i < 16; ++i) {
    const Addr ip = 0x400000 + 16 * Addr{i};
    trace::ChampSimRecord st;
    st.ip = ip;
    st.src_regs[0] = 1;
    st.dest_mem[0] = 0x10000 + 64 * Addr{i % 8};
    trace::ChampSimRecord ld;
    ld.ip = ip + 4;
    ld.dest_regs[0] = 2;
    ld.src_mem[0] = st.dest_mem[0];
    trace::ChampSimRecord far;
    far.ip = ip + 8;
    far.dest_regs[0] = 3;
    far.src_mem[0] = 0x40000000 + (Addr{i} << 18);
    records.insert(records.end(), {st, ld, far});
  }
  return from_records("store_then_load", records);
}

}  // namespace tlrob::hand_traces
