// Lowering ChampSim trace records onto the micro-op ISA.
//
// One streaming pass over the trace builds a Program whose CFG mirrors the
// dynamic stream: one basic block per unique trace PC, lowered from the
// first dynamic occurrence of that PC. Memory instructions split into an
// address-generation uop plus one access uop per referenced address (the
// access consumes the agen uop's result through a reserved scratch
// register), register identities map deterministically onto the 64-register
// micro-op file, and branch records terminate their block with the control
// class ChampSim's register-pattern inference assigns them. Successor edges
// (fallthrough / taken target) are the first-observed dynamic successors,
// except that a call falls through to where its matching return first
// lands (a shadow call stack pairs them), so the RAS predicts returns; the
// stream end wraps to the first record, matching loop-rewind replay.
//
// Everything here is a pure function of the record bytes, so the replay
// layer (source.cpp) can re-derive each block's uop roles without storing
// per-record metadata.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "isa/program.hpp"
#include "trace/champsim.hpp"
#include "trace/reader.hpp"

namespace tlrob::trace {

/// Scratch registers reserved out of the mapped range: the agen uop writes
/// kAgenTempReg and every access uop of the same record reads it; loads
/// beyond the record's destination registers write kValueTempReg.
inline constexpr ArchReg kAgenTempReg = ireg(31);
inline constexpr ArchReg kValueTempReg = ireg(30);

/// Deterministic trace-register -> micro-op-register map. Slot 0 and the
/// instruction pointer map to kNoReg (control flow is explicit in the
/// micro-op ISA); 1..32 fold onto integer registers 0..29 (30/31 are the
/// scratch pair), 33..64 onto the FP file, 65..127 back onto the integers.
/// Values >= kMaxTraceReg are rejected during lowering, not mapped.
ArchReg map_trace_reg(u8 r);

/// The micro-op sequence for one record, in block order: [agen] [loads...]
/// [stores...] [compute-or-control]. taken_block/pc are patched later by
/// the CFG build; agen_id/bgen_id are always generator 0.
std::vector<StaticInst> lower_record(const ChampSimRecord& rec);

/// A lowered trace: the finalized Program plus the tables replay needs.
struct TraceLowering {
  std::shared_ptr<const Program> program;
  FlatMap<Addr, u32> block_of_ip;  // trace instruction pointer -> block id
  u64 record_count = 0;
  u64 content_hash = kFnvOffsetBasis;  // FNV-1a over all record wire bytes
  Addr data_base = 0;                  // observed data footprint (page-aligned
  u64 data_span = 8;                   // base, clamped span) for wrong-path
                                       // address synthesis
};

/// Streams the whole trace once and builds the lowering. Throws
/// std::runtime_error on an empty trace, a register index >= kMaxTraceReg,
/// or a stream truncated mid-record; `name` labels the diagnostics.
TraceLowering build_lowering(TraceReader& reader, const std::string& name);

}  // namespace tlrob::trace
