#include "trace/lowering.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace tlrob::trace {

namespace {

/// Memory-footprint cap for the wrong-path address spec: sparse traces can
/// span the whole virtual address space, but wrong-path synthesis only needs
/// a plausible-locality region.
constexpr u64 kMaxDataSpan = u64{1} << 26;

/// Unique-PC cap: a runaway (or non-trace) input must fail with a message,
/// not exhaust memory building one block per corrupt "record".
constexpr u32 kMaxBlocks = u32{1} << 20;

OpClass control_class(BranchKind kind) {
  switch (kind) {
    case BranchKind::kConditional: return OpClass::kBranch;
    case BranchKind::kDirectCall:
    case BranchKind::kIndirectCall: return OpClass::kCall;
    case BranchKind::kReturn: return OpClass::kReturn;
    default: return OpClass::kJump;  // direct/indirect jumps, BRANCH_OTHER
  }
}

}  // namespace

ArchReg map_trace_reg(u8 r) {
  if (r == 0 || r == kRegInstructionPointer) return kNoReg;
  if (r < 33) return ireg((static_cast<u32>(r) - 1) % 30);
  if (r < 65) return freg(static_cast<u32>(r) - 33);
  return ireg((static_cast<u32>(r) - 65) % 30);
}

std::vector<StaticInst> lower_record(const ChampSimRecord& rec) {
  ArchReg srcs[2] = {kNoReg, kNoReg};
  u32 n_src = 0;
  bool any_fp = false;
  for (const u8 r : rec.src_regs) {
    const ArchReg m = map_trace_reg(r);
    if (m == kNoReg) continue;
    any_fp = any_fp || is_fp_reg(m);
    if (n_src < 2) srcs[n_src++] = m;
  }
  ArchReg dests[kNumDestRegs] = {kNoReg, kNoReg};
  u32 n_dest = 0;
  for (const u8 r : rec.dest_regs) {
    const ArchReg m = map_trace_reg(r);
    if (m == kNoReg) continue;
    any_fp = any_fp || is_fp_reg(m);
    dests[n_dest++] = m;
  }

  u32 n_loads = 0, n_stores = 0;
  for (const u64 a : rec.src_mem) n_loads += (a != 0);
  for (const u64 a : rec.dest_mem) n_stores += (a != 0);

  std::vector<StaticInst> uops;
  uops.reserve(2 + n_loads + n_stores);

  if (n_loads + n_stores > 0) {
    StaticInst agen;
    agen.op = OpClass::kIntAlu;
    agen.dest = kAgenTempReg;
    agen.src[0] = srcs[0];
    agen.src[1] = srcs[1];
    uops.push_back(agen);
  }
  for (u32 i = 0; i < n_loads; ++i) {
    StaticInst ld;
    ld.op = OpClass::kLoad;
    ld.agen_id = 0;
    ld.src[0] = kAgenTempReg;
    ld.dest = (i < n_dest) ? dests[i] : kValueTempReg;
    uops.push_back(ld);
  }
  for (u32 i = 0; i < n_stores; ++i) {
    StaticInst st;
    st.op = OpClass::kStore;
    st.agen_id = 0;
    st.src[0] = kAgenTempReg;
    st.src[1] = srcs[0];  // store data dependence
    uops.push_back(st);
  }

  const BranchKind kind = classify_branch(rec);
  if (kind != BranchKind::kNotBranch) {
    StaticInst br;
    br.op = control_class(kind);
    if (br.op == OpClass::kBranch) br.bgen_id = 0;
    br.src[0] = srcs[0];
    br.src[1] = srcs[1];
    uops.push_back(br);
  } else if (n_loads + n_stores == 0) {
    StaticInst alu;
    alu.op = any_fp ? OpClass::kFpAdd : OpClass::kIntAlu;
    alu.dest = dests[0];
    alu.src[0] = srcs[0];
    alu.src[1] = srcs[1];
    uops.push_back(alu);
  }
  return uops;
}

TraceLowering build_lowering(TraceReader& reader, const std::string& name) {
  auto program = std::make_shared<Program>(name);
  program->set_generator_counts(1, 1);

  // Build-time tables. The unordered map is lookup-only (never iterated);
  // deterministic iteration happens over block_ip / the FlatMap below.
  std::unordered_map<Addr, u32> block_of;
  std::vector<Addr> block_ip;
  struct Succ {
    Addr fallthrough_ip = 0;
    Addr taken_ip = 0;
    bool have_fallthrough = false;
    bool have_taken = false;
  };
  std::vector<Succ> succs;

  TraceLowering out;
  Addr data_min = 0, data_max = 0;
  bool have_data = false;

  auto validate_regs = [&](const ChampSimRecord& rec, u64 record_index) {
    for (const u8 r : rec.src_regs)
      if (r >= kMaxTraceReg)
        throw std::runtime_error(name + ": record " + std::to_string(record_index) +
                                 ": source register index " + std::to_string(r) +
                                 " out of range (max " + std::to_string(kMaxTraceReg - 1) + ")");
    for (const u8 r : rec.dest_regs)
      if (r >= kMaxTraceReg)
        throw std::runtime_error(name + ": record " + std::to_string(record_index) +
                                 ": destination register index " + std::to_string(r) +
                                 " out of range (max " + std::to_string(kMaxTraceReg - 1) + ")");
  };

  auto intern_block = [&](const ChampSimRecord& rec) -> u32 {
    const auto it = block_of.find(rec.ip);
    if (it != block_of.end()) return it->second;
    if (program->num_blocks() >= kMaxBlocks)
      throw std::runtime_error(name + ": more than " + std::to_string(kMaxBlocks) +
                               " unique trace PCs; input does not look like an "
                               "instruction trace");
    const u32 id = program->add_block();
    program->block(id).insts = lower_record(rec);
    block_of.emplace(rec.ip, id);
    block_ip.push_back(rec.ip);
    succs.emplace_back();
    return id;
  };

  auto note_data = [&](const ChampSimRecord& rec) {
    for (const u64 a : rec.src_mem)
      if (a != 0) {
        data_min = have_data ? std::min(data_min, a) : a;
        data_max = have_data ? std::max(data_max, a) : a;
        have_data = true;
      }
    for (const u64 a : rec.dest_mem)
      if (a != 0) {
        data_min = have_data ? std::min(data_min, a) : a;
        data_max = have_data ? std::max(data_max, a) : a;
        have_data = true;
      }
  };

  // Shadow call stack: the blocks of the calls not yet returned from. A
  // call's fall-through is where its return lands, which the call record
  // itself never shows; the RAS pushes that block's PC at the call.
  std::vector<u32> open_calls;
  auto set_fallthrough = [](Succ& s, Addr ip) {
    if (s.have_fallthrough) return;
    s.fallthrough_ip = ip;
    s.have_fallthrough = true;
  };
  // Records the edge from `from` to its dynamic successor `to_ip`.
  auto link = [&](const ChampSimRecord& from, Addr to_ip) {
    const u32 from_id = block_of.find(from.ip)->second;
    Succ& s = succs[from_id];
    const BranchKind kind = classify_branch(from);
    if (kind == BranchKind::kDirectCall || kind == BranchKind::kIndirectCall) {
      open_calls.push_back(from_id);
      if (open_calls.size() > 1024) open_calls.erase(open_calls.begin());  // runaway guard
    } else if (kind == BranchKind::kReturn && !open_calls.empty()) {
      set_fallthrough(succs[open_calls.back()], to_ip);
      open_calls.pop_back();
    }
    if (from.is_branch != 0 && from.branch_taken != 0) {
      if (!s.have_taken) {
        s.taken_ip = to_ip;
        s.have_taken = true;
      }
    } else {
      set_fallthrough(s, to_ip);
    }
  };

  ChampSimRecord first{}, prev{};
  ChampSimRecord rec;
  while (reader.next(rec)) {
    if (out.record_count == 0) first = rec;
    out.content_hash = fnv1a_record(out.content_hash, rec);
    validate_regs(rec, out.record_count);
    note_data(rec);
    intern_block(rec);
    if (out.record_count > 0) link(prev, rec.ip);
    prev = rec;
    ++out.record_count;
  }
  if (out.record_count == 0)
    throw std::runtime_error(name + ": trace contains no records");

  // Loop-rewind closure: the last record's dynamic successor is record 0.
  link(prev, first.ip);

  // Patch successor edges: unobserved edges (never-taken branch, always-taken
  // jump fallthrough, a call never returned from) steer to block 0 — only
  // wrong-path synthesis, static-target prediction and the RAS ever consult
  // them.
  for (u32 b = 0; b < program->num_blocks(); ++b) {
    BasicBlock& bb = program->block(b);
    const Succ& s = succs[b];
    bb.fallthrough = s.have_fallthrough ? block_of.find(s.fallthrough_ip)->second : 0;
    StaticInst& last = bb.insts.back();
    if (is_control(last.op))
      last.taken_block = s.have_taken ? block_of.find(s.taken_ip)->second : 0;
  }

  program->finalize();

  out.block_of_ip.reserve(block_ip.size());
  for (u32 b = 0; b < block_ip.size(); ++b) out.block_of_ip.emplace(block_ip[b], b);
  out.block_of_ip.seal();

  if (have_data) {
    out.data_base = data_min & ~Addr{4095};
    out.data_span = std::clamp<u64>(data_max - out.data_base, 8, kMaxDataSpan);
  }
  out.program = std::move(program);
  return out;
}

}  // namespace tlrob::trace
