#include "workload/thread_context.hpp"

#include <algorithm>
#include <stdexcept>

namespace tlrob {

ThreadPlacement thread_placement(u64 global_thread, u64 seed) {
  return {.base = static_cast<Addr>(global_thread + 1) << kThreadWindowBits,
          .salt = seed + 7919ULL * (global_thread + 1)};
}

std::unique_ptr<ThreadContext> make_thread_context(const Benchmark& bench, u64 global_thread,
                                                   u64 seed) {
  const ThreadPlacement p = thread_placement(global_thread, seed);
  return bench.source_factory ? bench.source_factory(bench, p.base, p.salt)
                              : std::make_unique<ThreadContext>(bench, p.base, p.salt);
}

ThreadContext::ThreadContext(const Benchmark& bench, Addr addr_space_base, u64 salt)
    : bench_(&bench), addr_base_(addr_space_base) {
  if (!bench.program || !bench.program->finalized())
    throw std::logic_error("ThreadContext: benchmark program missing or not finalized");
  if (bench.agens.size() != bench.program->num_address_generators() ||
      bench.bgens.size() != bench.program->num_branch_generators())
    throw std::logic_error("ThreadContext: generator spec count mismatch for " + bench.name);
  agens_.reserve(bench.agens.size());
  for (const auto& spec : bench.agens) agens_.emplace_back(spec, addr_space_base, salt);
  bgens_.reserve(bench.bgens.size());
  for (const auto& spec : bench.bgens) bgens_.emplace_back(spec, salt);
  ret_stack_.reserve(64);
}

Addr ThreadContext::wrong_path_addr(const StaticInst& si, Rng& rng) const {
  const AddrGenSpec& spec = agens_[static_cast<u32>(si.agen_id)].spec();
  const u64 region = std::max<u64>(8, spec.region_bytes);
  return addr_base_ + spec.base + (rng.next() % region & ~7ULL);
}

std::vector<AddrRegion> ThreadContext::warm_regions(u32 tier) const {
  // Only content the benchmark re-touches starts resident: streaming sweeps,
  // pointer chases and the cold bodies of gather regions have no reuse to
  // preserve, and warming them would only flush every other thread's hot
  // set. Tier 0 holds the large reuse regions (a random region's hot
  // prefix, or all of a random region up to 1 MiB), tier 1 the small stacks,
  // which so end LRU-youngest.
  std::vector<AddrRegion> out;
  for (const AddrGen& g : agens_) {
    const AddrGenSpec& s = g.spec();
    const Addr at = addr_base_ + s.base;
    if (tier == 0 && s.pattern == AddrPattern::kRandom && s.hot_bytes > 0)
      out.push_back({at, s.hot_bytes});
    else if (tier == 0 && s.pattern == AddrPattern::kRandom && s.region_bytes <= (1 << 20))
      out.push_back({at, s.region_bytes});
    else if (tier == 1 && s.pattern == AddrPattern::kStack)
      out.push_back({at, s.region_bytes});
  }
  return out;
}

void ThreadContext::refill() {
  for (u32 i = 0; i < kBatch; ++i) batch_[i] = produce();
  batch_pos_ = 0;
  batch_len_ = kBatch;
}

ArchOp ThreadContext::produce() {
  const Program& prog = program();
  const BasicBlock& bb = prog.block(block_);
  const StaticInst& si = bb.insts[index_];

  ArchOp op;
  op.si = &si;
  op.pc = si.pc;
  op.block = block_;

  if (is_memory(si.op)) op.mem_addr = agens_[static_cast<u32>(si.agen_id)].next();

  // Determine the next architectural position.
  u32 next_block = block_;
  u32 next_index = index_ + 1;
  const bool at_block_end = (next_index == bb.insts.size());

  switch (si.op) {
    case OpClass::kBranch: {
      op.taken = bgens_[static_cast<u32>(si.bgen_id)].next();
      next_block = op.taken ? si.taken_block : bb.fallthrough;
      next_index = 0;
      break;
    }
    case OpClass::kJump: {
      op.taken = true;
      next_block = si.taken_block;
      next_index = 0;
      break;
    }
    case OpClass::kCall: {
      op.taken = true;
      // Resume at the fall-through block after the callee returns. Calls
      // terminate their block (enforced by Program::finalize), so the resume
      // point is always a block start.
      ret_stack_.push_back({bb.fallthrough});
      if (ret_stack_.size() > 1024) ret_stack_.erase(ret_stack_.begin());  // runaway guard
      next_block = si.taken_block;
      next_index = 0;
      break;
    }
    case OpClass::kReturn: {
      op.taken = true;
      if (ret_stack_.empty()) {
        next_block = 0;  // defensive: degenerate programs return to entry
      } else {
        next_block = ret_stack_.back().block;
        ret_stack_.pop_back();
      }
      next_index = 0;
      break;
    }
    default: {
      if (at_block_end) {
        next_block = bb.fallthrough;
        next_index = 0;
      }
      break;
    }
  }

  if (is_control(si.op)) op.target_pc = block_pc(next_block);

  block_ = next_block;
  index_ = next_index;
  return op;
}

}  // namespace tlrob
