#include "trace/source.hpp"

#include <stdexcept>
#include <utility>

#include "trace/byte_source.hpp"

namespace tlrob::trace {

namespace {

/// Trace data addresses fold into the thread's window (thread_placement),
/// so coexisting replayed threads never alias each other's lines.
constexpr Addr kDataAddrMask = (Addr{1} << kThreadWindowBits) - 1;

}  // namespace

std::shared_ptr<const TraceWorkload> TraceWorkload::from_file(const std::string& path) {
  std::shared_ptr<TraceWorkload> wl(new TraceWorkload());
  TraceReader reader(open_trace_file(path));
  wl->lowering_ = build_lowering(reader, path);
  // The "trace:" prefix makes the workload name a valid resolve.hpp token,
  // so names recorded in JSONL replay through resolve_benchmark() as-is.
  wl->name_ = "trace:" + path;
  wl->path_ = path;
  return wl;
}

std::shared_ptr<const TraceWorkload> TraceWorkload::from_records(
    const std::string& name, const std::vector<ChampSimRecord>& records) {
  auto bytes = std::make_shared<std::vector<u8>>(records.size() * kRecordBytes);
  for (std::size_t i = 0; i < records.size(); ++i)
    serialize_record(records[i], bytes->data() + i * kRecordBytes);
  std::shared_ptr<TraceWorkload> wl(new TraceWorkload());
  TraceReader reader(std::make_unique<MemoryByteSource>(bytes));
  wl->lowering_ = build_lowering(reader, name);
  wl->name_ = name;
  wl->mem_ = std::move(bytes);
  return wl;
}

std::unique_ptr<TraceReader> TraceWorkload::open_reader() const {
  if (!path_.empty()) return std::make_unique<TraceReader>(open_trace_file(path_));
  return std::make_unique<TraceReader>(std::make_unique<MemoryByteSource>(mem_));
}

Benchmark trace_benchmark(std::shared_ptr<const TraceWorkload> workload) {
  const TraceLowering& low = workload->lowering();
  Benchmark b;
  b.name = workload->name();
  b.program = low.program;
  // Only wrong-path synthesis reads this spec: past a mispredict, fetch walks
  // the static CFG and ThreadContext::wrong_path_addr draws plausible
  // addresses from it. Correct-path replay never does.
  AddrGenSpec wrong_path;
  wrong_path.base = static_cast<Addr>(low.data_base & kDataAddrMask);
  wrong_path.region_bytes = low.data_span;
  b.agens = {wrong_path};
  b.bgens = {BranchGenSpec{}};  // outcomes come from the trace, never this
  b.expected_class = IlpClass::kMid;
  b.source_factory = [wl = std::move(workload)](const Benchmark& bench, Addr base,
                                                u64 salt) -> std::unique_ptr<ThreadContext> {
    return std::make_unique<TraceThreadSource>(bench, base, salt, wl);
  };
  return b;
}

TraceThreadSource::TraceThreadSource(const Benchmark& bench, Addr addr_space_base, u64 salt,
                                     std::shared_ptr<const TraceWorkload> workload)
    : ThreadContext(bench, addr_space_base, salt), workload_(std::move(workload)) {
  reader_ = workload_->open_reader();
  if (!reader_->next(next_))
    throw std::runtime_error(workload_->name() + ": trace contains no records");
  const u32* b = workload_->lowering().block_of_ip.find(next_.ip);
  if (b == nullptr)
    throw std::runtime_error(workload_->name() + ": trace changed between load and replay");
  next_block_ = *b;
  uops_.reserve(8);
  advance_record();
}

void TraceThreadSource::advance_record() {
  cur_ = next_;
  cur_block_ = next_block_;

  // Lookahead: the dynamic successor of cur_ is whatever record comes next;
  // at end-of-stream the trace rewinds to record 0 (fixed-instruction-budget
  // replay), matching the CFG closure built by build_lowering().
  if (!reader_->next(next_)) {
    reader_->rewind();
    if (!reader_->next(next_))
      throw std::runtime_error(workload_->name() + ": trace became empty on rewind");
  }
  const u32* nb = workload_->lowering().block_of_ip.find(next_.ip);
  if (nb == nullptr)
    throw std::runtime_error(workload_->name() + ": trace changed between load and replay");
  next_block_ = *nb;

  // Re-derive the uop roles from the block's static shape (a pure function
  // of the first-seen record bytes at this PC) and attach this occurrence's
  // dynamic facts: memory addresses positionally, branch outcome and actual
  // target from the record and the lookahead.
  u64 load_addrs[4];
  u32 n_loads = 0;
  for (const u64 a : cur_.src_mem)
    if (a != 0) load_addrs[n_loads++] = a;
  u64 store_addrs[2];
  u32 n_stores = 0;
  for (const u64 a : cur_.dest_mem)
    if (a != 0) store_addrs[n_stores++] = a;

  const Addr base = addr_space_base();
  const Addr fallback = base + (workload_->lowering().data_base & kDataAddrMask);
  const BasicBlock& bb = program().block(cur_block_);
  const Addr actual_target = block_pc(next_block_);

  uops_.clear();
  uop_pos_ = 0;
  u32 li = 0, sti = 0;
  bool mismatch = false;
  for (const StaticInst& si : bb.insts) {
    ArchOp op;
    op.si = &si;
    op.pc = si.pc;
    op.block = cur_block_;
    switch (si.op) {
      case OpClass::kLoad:
        if (li < n_loads) {
          op.mem_addr = base + (load_addrs[li++] & kDataAddrMask);
        } else {
          op.mem_addr = fallback;
          mismatch = true;
        }
        break;
      case OpClass::kStore:
        if (sti < n_stores) {
          op.mem_addr = base + (store_addrs[sti++] & kDataAddrMask);
        } else {
          op.mem_addr = fallback;
          mismatch = true;
        }
        break;
      default:
        if (is_control(si.op)) {
          op.taken = (si.op == OpClass::kBranch) ? (cur_.branch_taken != 0) : true;
          op.target_pc = actual_target;
        }
        break;
    }
    uops_.push_back(op);
  }
  // Dynamic references beyond the static shape (a PC whose later occurrences
  // touch more addresses than its first) are dropped, not modelled.
  if (li < n_loads || sti < n_stores) mismatch = true;
  if (mismatch) ++unmapped_;
}

void TraceThreadSource::refill() {
  for (u32 i = 0; i < kBatch; ++i) {
    if (uop_pos_ == uops_.size()) advance_record();
    batch_[i] = uops_[uop_pos_++];
  }
  batch_pos_ = 0;
  batch_len_ = kBatch;
}

void TraceThreadSource::append_source_counters(u32 tid,
                                               std::map<std::string, u64>& counters) const {
  const std::string prefix = "trace.t" + std::to_string(tid) + ".";
  counters[prefix + "records_decoded"] = reader_->records_decoded();
  counters[prefix + "rewinds"] = reader_->rewinds();
  counters[prefix + "unmapped_fallbacks"] = unmapped_;
  counters[prefix + "content_hash"] = workload_->lowering().content_hash;
  counters["trace.records_decoded"] += reader_->records_decoded();
  counters["trace.rewinds"] += reader_->rewinds();
  counters["trace.unmapped_fallbacks"] += unmapped_;
}

}  // namespace tlrob::trace
