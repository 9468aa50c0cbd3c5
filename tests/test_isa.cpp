// Unit tests for the ISA layer: opcodes, static instructions, programs and
// the program builder's CFG validation.
#include <gtest/gtest.h>

#include "isa/opcode.hpp"
#include "isa/program.hpp"
#include "isa/program_builder.hpp"

namespace tlrob {
namespace {

TEST(Opcode, Classification) {
  EXPECT_TRUE(is_control(OpClass::kBranch));
  EXPECT_TRUE(is_control(OpClass::kJump));
  EXPECT_TRUE(is_control(OpClass::kCall));
  EXPECT_TRUE(is_control(OpClass::kReturn));
  EXPECT_FALSE(is_control(OpClass::kIntAlu));
  EXPECT_TRUE(is_memory(OpClass::kLoad));
  EXPECT_TRUE(is_memory(OpClass::kStore));
  EXPECT_FALSE(is_memory(OpClass::kFpAdd));
  EXPECT_TRUE(is_fp(OpClass::kFpSqrt));
  EXPECT_FALSE(is_fp(OpClass::kLoad));
}

TEST(Opcode, NamesAreStable) {
  EXPECT_EQ(op_class_name(OpClass::kLoad), "load");
  EXPECT_EQ(op_class_name(OpClass::kFpMult), "fp_mult");
  EXPECT_EQ(op_class_name(OpClass::kReturn), "return");
}

TEST(StaticInst, RegisterHelpers) {
  EXPECT_FALSE(is_fp_reg(ireg(5)));
  EXPECT_TRUE(is_fp_reg(freg(5)));
  EXPECT_EQ(ireg(33), ireg(1));  // wraps within the int file
  EXPECT_EQ(freg(32), freg(0));

  StaticInst si;
  si.op = OpClass::kIntAlu;
  si.dest = ireg(1);
  si.src[0] = ireg(2);
  EXPECT_EQ(si.num_src(), 1);
  EXPECT_TRUE(si.has_dest());
}

TEST(ProgramBuilder, AssignsSequentialPcs) {
  ProgramBuilder pb("p");
  const u32 b0 = pb.current_block();
  pb.int_alu(ireg(1)).int_alu(ireg(2), ireg(1)).jump(b0);
  Program p = pb.build(0, 0, 0x1000);

  ASSERT_TRUE(p.finalized());
  EXPECT_EQ(p.num_static_insts(), 3u);
  EXPECT_EQ(p.block(0).insts[0].pc, 0x1000u);
  EXPECT_EQ(p.block(0).insts[1].pc, 0x1004u);
  EXPECT_EQ(p.block(0).insts[2].pc, 0x1008u);
}

TEST(ProgramBuilder, RejectsControlMidBlock) {
  ProgramBuilder pb("bad");
  const u32 b0 = pb.current_block();
  pb.jump(b0).int_alu(ireg(1));  // jump not at block end
  EXPECT_THROW(pb.build(0, 0), std::logic_error);
}

TEST(ProgramBuilder, RejectsEmptyBlock) {
  ProgramBuilder pb("bad");
  pb.new_block();  // never filled
  pb.int_alu(ireg(1));
  EXPECT_THROW(pb.build(0, 0), std::logic_error);
}

TEST(ProgramBuilder, RejectsBadGeneratorIds) {
  {
    ProgramBuilder pb("bad-agen");
    pb.load(ireg(1), /*agen=*/3);
    EXPECT_THROW(pb.build(/*num_agens=*/1, 0), std::logic_error);
  }
  {
    ProgramBuilder pb("bad-bgen");
    const u32 b0 = pb.current_block();
    pb.branch(/*bgen=*/2, b0);
    EXPECT_THROW(pb.build(0, /*num_bgens=*/1), std::logic_error);
  }
}

TEST(ProgramBuilder, RejectsOutOfRangeTarget) {
  ProgramBuilder pb("bad-target");
  pb.jump(42);
  EXPECT_THROW(pb.build(0, 0), std::logic_error);
}

TEST(ProgramBuilder, RejectsStoreWithDest) {
  ProgramBuilder pb("bad-store");
  StaticInst si;
  si.op = OpClass::kStore;
  si.dest = ireg(1);
  si.agen_id = 0;
  pb.emit(si);
  EXPECT_THROW(pb.build(1, 0), std::logic_error);
}

TEST(ProgramBuilder, ValidMultiBlockProgram) {
  ProgramBuilder pb("ok");
  const u32 entry = pb.current_block();
  const u32 head = pb.new_block();
  const u32 tail = pb.new_block();
  pb.in(entry).int_alu(ireg(1)).jump(head);
  pb.in(head).load(freg(0), 0, ireg(1)).fp_add(freg(1), freg(0), freg(1)).branch(0, head,
                                                                                 ireg(1));
  pb.fallthrough(head, tail);
  pb.in(tail).store(0, freg(1)).jump(head);
  Program p = pb.build(1, 1);
  EXPECT_EQ(p.num_blocks(), 3u);
  EXPECT_EQ(p.num_address_generators(), 1u);
  EXPECT_EQ(p.num_branch_generators(), 1u);
  EXPECT_TRUE(p.finalized());
  EXPECT_THROW(p.finalize(), std::logic_error);  // double finalize
}

TEST(Program, BlockStartingAtAnswersBlockStartsOnly) {
  ProgramBuilder pb("lookup");
  const u32 entry = pb.current_block();
  const u32 body = pb.new_block();
  pb.in(entry).int_alu(ireg(1)).int_alu(ireg(2)).jump(body);
  pb.in(body).int_alu(ireg(3)).jump(entry);
  const Program p = pb.build(0, 0, 0x1000);
  EXPECT_EQ(p.block_starting_at(0x1000), std::optional<u32>(entry));
  EXPECT_EQ(p.block_starting_at(0x100c), std::optional<u32>(body));
  // Mid-block PCs and PCs outside the code are no block's start: a return
  // predicted to one ends its wrong path.
  for (const Addr pc : {Addr{0}, Addr{0xffc}, Addr{0x1004}, Addr{0x1008}, Addr{0x1010},
                        Addr{0x1014}})
    EXPECT_FALSE(p.block_starting_at(pc).has_value()) << pc;
}

}  // namespace
}  // namespace tlrob
