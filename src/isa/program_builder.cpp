#include "isa/program_builder.hpp"

namespace tlrob {

ProgramBuilder::ProgramBuilder(std::string name) : prog_(std::move(name)) {
  cur_ = prog_.add_block();
}

u32 ProgramBuilder::new_block() { return prog_.add_block(); }

ProgramBuilder& ProgramBuilder::in(u32 block) {
  cur_ = block;
  return *this;
}

ProgramBuilder& ProgramBuilder::fallthrough(u32 block, u32 succ) {
  prog_.block(block).fallthrough = succ;
  return *this;
}

ProgramBuilder& ProgramBuilder::emit(StaticInst si) {
  prog_.block(cur_).insts.push_back(si);
  return *this;
}

namespace {
StaticInst make3(OpClass op, ArchReg d, ArchReg a, ArchReg b) {
  StaticInst si;
  si.op = op;
  si.dest = d;
  si.src[0] = a;
  si.src[1] = b;
  return si;
}
}  // namespace

ProgramBuilder& ProgramBuilder::int_alu(ArchReg d, ArchReg a, ArchReg b) {
  return emit(make3(OpClass::kIntAlu, d, a, b));
}
ProgramBuilder& ProgramBuilder::int_mult(ArchReg d, ArchReg a, ArchReg b) {
  return emit(make3(OpClass::kIntMult, d, a, b));
}
ProgramBuilder& ProgramBuilder::fp_add(ArchReg d, ArchReg a, ArchReg b) {
  return emit(make3(OpClass::kFpAdd, d, a, b));
}
ProgramBuilder& ProgramBuilder::fp_mult(ArchReg d, ArchReg a, ArchReg b) {
  return emit(make3(OpClass::kFpMult, d, a, b));
}

ProgramBuilder& ProgramBuilder::load(ArchReg d, u32 agen, ArchReg addr_dep) {
  StaticInst si = make3(OpClass::kLoad, d, addr_dep, kNoReg);
  si.agen_id = static_cast<i32>(agen);
  return emit(si);
}

ProgramBuilder& ProgramBuilder::store(u32 agen, ArchReg value_src, ArchReg addr_dep) {
  StaticInst si = make3(OpClass::kStore, kNoReg, value_src, addr_dep);
  si.agen_id = static_cast<i32>(agen);
  return emit(si);
}

ProgramBuilder& ProgramBuilder::branch(u32 bgen, u32 taken_block, ArchReg cond_src) {
  StaticInst si = make3(OpClass::kBranch, kNoReg, cond_src, kNoReg);
  si.bgen_id = static_cast<i32>(bgen);
  si.taken_block = taken_block;
  return emit(si);
}

ProgramBuilder& ProgramBuilder::jump(u32 target) {
  StaticInst si = make3(OpClass::kJump, kNoReg, kNoReg, kNoReg);
  si.taken_block = target;
  return emit(si);
}

ProgramBuilder& ProgramBuilder::call(u32 target) {
  StaticInst si = make3(OpClass::kCall, kNoReg, kNoReg, kNoReg);
  si.taken_block = target;
  return emit(si);
}

ProgramBuilder& ProgramBuilder::ret() {
  StaticInst si = make3(OpClass::kReturn, kNoReg, kNoReg, kNoReg);
  return emit(si);
}

Program ProgramBuilder::build(u32 num_agens, u32 num_bgens, Addr code_base) {
  prog_.set_generator_counts(num_agens, num_bgens);
  prog_.finalize(code_base);
  return std::move(prog_);
}

}  // namespace tlrob
