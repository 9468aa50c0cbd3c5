// Architectural (functional) execution of a synthetic program.
//
// The ThreadContext walks the program's CFG along the *correct* path only,
// producing one ArchOp per dynamic instruction: static-instruction identity,
// PC, resolved memory address (loads/stores) and resolved branch outcome /
// target. The timing simulator consumes this stream at fetch — the classic
// functional-first, timing-directed organisation of SimpleScalar/M-Sim.
//
// Wrong-path instructions are synthesised by the fetch unit itself (see
// pipeline/fetch-related code in sim/) and never advance the ThreadContext
// (wrong_path_addr only reads its specs), so mispredicted-branch recovery
// requires no architectural rollback. The context also owns the thread's
// address layout: where it sits (thread_placement) and what starts warm.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "workload/addr_gen.hpp"
#include "workload/branch_gen.hpp"

namespace tlrob {

class ThreadContext;
struct Benchmark;

/// Single-thread ILP class, as in the paper's Table 2 (low = memory-bound,
/// high = execution-bound).
enum class IlpClass : u8 { kLow, kMid, kHigh };

/// Optional per-thread source constructor: a benchmark backed by something
/// other than the synthetic generators (e.g. a trace replay, src/trace/)
/// supplies one and make_thread_context constructs through it; when empty
/// it builds a plain ThreadContext. Arguments mirror the ThreadContext ctor.
using ThreadSourceFactory =
    std::function<std::unique_ptr<ThreadContext>(const Benchmark&, Addr, u64)>;

/// A complete synthetic benchmark: the program plus the generator specs the
/// per-thread context instantiates.
struct Benchmark {
  std::string name;
  std::shared_ptr<const Program> program;
  std::vector<AddrGenSpec> agens;
  std::vector<BranchGenSpec> bgens;
  IlpClass expected_class = IlpClass::kMid;
  ThreadSourceFactory source_factory;
};

/// One dynamic correct-path instruction.
struct ArchOp {
  const StaticInst* si = nullptr;
  Addr pc = 0;
  u32 block = 0;       // basic block containing the instruction
  Addr mem_addr = 0;   // loads/stores
  bool taken = false;  // control ops: actual direction (unconditional => true)
  Addr target_pc = 0;  // control ops: actual next PC
};

/// Each hardware thread owns a 2^kThreadWindowBits-byte (64 GiB) address
/// window, far wider than any working set: threads never share a line.
inline constexpr u32 kThreadWindowBits = 36;

/// Where one machine-global thread sits. Its code and data occupy the
/// window from `base` (the address of PC p is base + p); `salt`
/// decorrelates its generator streams from every other thread's.
struct ThreadPlacement {
  Addr base;
  u64 salt;
};

/// The one placement rule: machine-global thread `global_thread` (core
/// index * threads per core + thread) owns window `global_thread + 1`, so
/// windows are disjoint and address 0 is in none; its salt mixes the
/// machine seed with the same index.
ThreadPlacement thread_placement(u64 global_thread, u64 seed);

/// A contiguous span of a thread's addresses.
struct AddrRegion {
  Addr base;
  u64 bytes;
};

class ThreadContext {
 public:
  /// `addr_space_base` separates coexisting threads' code/data; `salt`
  /// decorrelates generator streams between thread instances. A simulated
  /// thread takes both from thread_placement (make_thread_context).
  ThreadContext(const Benchmark& bench, Addr addr_space_base, u64 salt);
  virtual ~ThreadContext() = default;

  /// Produces the next correct-path instruction and advances. Production
  /// is batched: the source walk (refill()) runs kBatch instructions at a
  /// time into a buffer, amortizing the out-of-line address/branch
  /// generator calls — and, for derived sources, the one virtual dispatch
  /// per batch; timing never feeds back into the architectural walk, so
  /// running ahead is unobservable.
  ArchOp next() {
    if (batch_pos_ == batch_len_) refill();
    ++generated_;
    return batch_[batch_pos_++];
  }

  const Program& program() const { return *bench_->program; }
  u64 generated() const { return generated_; }

  /// PC of the first instruction of `block` (used by fetch for targets).
  Addr block_pc(u32 block) const { return program().block(block).insts.front().pc; }

  /// The address the L1I is probed at to fetch `pc`.
  Addr code_addr(Addr pc) const { return addr_base_ + pc; }

  /// A plausible data address for memory instruction `si` fetched down a
  /// wrong path: a random 8-byte-aligned offset, one draw from `rng`, into
  /// the region `si` touches on the correct path. The generators' state is
  /// untouched.
  Addr wrong_path_addr(const StaticInst& si, Rng& rng) const;

  /// Functional warming (the stand-in for SimPoint fast-forwarding) runs in
  /// tiers: the core installs tier 0 of every thread, then tier 1 of every
  /// thread, so the last tier ends LRU-youngest.
  static constexpr u32 kWarmTiers = 2;

  /// The regions warming tier `tier` installs for this thread, in install
  /// order.
  virtual std::vector<AddrRegion> warm_regions(u32 tier) const;

  /// Merges this source's own counters into a result map at snapshot time
  /// (cold path). The synthetic generators export none; trace replay
  /// sources export their trace.* family (src/trace/source.cpp).
  virtual void append_source_counters(u32 /*tid*/,
                                      std::map<std::string, u64>& /*counters*/) const {}

 protected:
  static constexpr u32 kBatch = 32;

  Addr addr_space_base() const { return addr_base_; }

  /// Fills batch_ with the next kBatch correct-path instructions. The one
  /// virtual call per batch is what lets derived sources (trace replay)
  /// plug in without touching the fetch hot path.
  virtual void refill();

  std::array<ArchOp, kBatch> batch_;
  u32 batch_pos_ = 0;
  u32 batch_len_ = 0;

 private:
  struct ReturnPoint {
    u32 block;
  };

  ArchOp produce();

  const Benchmark* bench_;
  Addr addr_base_;
  std::vector<AddrGen> agens_;
  std::vector<BranchGen> bgens_;
  u32 block_ = 0;
  u32 index_ = 0;
  std::vector<ReturnPoint> ret_stack_;
  u64 generated_ = 0;  // instructions consumed through next()
};

/// Builds machine-global thread `global_thread`'s source of `bench` at its
/// thread_placement: through `bench.source_factory` when the benchmark has
/// one, else a synthetic ThreadContext.
std::unique_ptr<ThreadContext> make_thread_context(const Benchmark& bench, u64 global_thread,
                                                   u64 seed);

}  // namespace tlrob
