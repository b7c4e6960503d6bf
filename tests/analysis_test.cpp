// Tests for the IR-construction phase: disassembly engines, aggregation
// (the paper's Cases 1-4), jump-table discovery, pinning, and IR building.
#include <gtest/gtest.h>

#include "analysis/disasm.h"
#include "analysis/ir_builder.h"
#include "analysis/pinning.h"
#include "testing_util.h"

namespace zipr::analysis {
namespace {

using ::zipr::testing::must_assemble;
using zelf::layout::kTextBase;

TEST(LinearSweep, DecodesCleanCode) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  auto r = linear_sweep(img.text());
  EXPECT_EQ(r.insns.size(), 3u);
  EXPECT_TRUE(r.code.contains_range(kTextBase, kTextBase + 14));
}

TEST(LinearSweep, ResynchronizesAfterBadBytes) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      nop
      .byte 0x00, 0x00   ; undecodable
      ret
  )");
  auto r = linear_sweep(img.text());
  // nop and ret decode; the zero bytes do not.
  EXPECT_TRUE(r.insns.count(kTextBase));
  EXPECT_TRUE(r.insns.count(kTextBase + 3));
  EXPECT_FALSE(r.code.contains(kTextBase + 1));
}

TEST(LinearSweep, DesynchronizedByEmbeddedData) {
  // ASCII text decodes as plausible instructions -- the classic linear
  // sweep failure the aggregator must survive.
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      jmp after
      .ascii "hello world, this is data"
    after:
      ret
  )");
  auto r = linear_sweep(img.text());
  // The sweep claims *something* inside the string region (e.g. 'h' = 0x68
  // push). We only require that it decoded bytes there.
  bool claimed_inside = false;
  for (const auto& [addr, insn] : r.insns)
    if (addr > kTextBase + 5 && addr < kTextBase + 30) claimed_inside = true;
  EXPECT_TRUE(claimed_inside);
}

TEST(RecursiveTraversal, FollowsControlFlowOnly) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      jmp after
      .ascii "embedded data that is never executed"
    after:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  auto r = recursive_traversal(img);
  EXPECT_TRUE(r.dis.insns.count(kTextBase));  // the jmp
  // Nothing inside the string is claimed.
  for (const auto& [addr, insn] : r.dis.insns)
    EXPECT_FALSE(addr > kTextBase && addr < kTextBase + 5 + 36) << hex_addr(addr);
}

TEST(RecursiveTraversal, DiscoversCallTargetsAsFunctions) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      call helper
      movi r0, 1
      movi r1, 0
      syscall
    helper:
      ret
  )");
  auto r = recursive_traversal(img);
  EXPECT_TRUE(r.function_entries.count(img.entry));
  EXPECT_TRUE(r.function_entries.count(kTextBase + 5 + 6 + 6 + 2));
}

TEST(RecursiveTraversal, DiscoversJumpTables) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      jmpt r0, table
    case0: ret
    case1: ret
    case2: ret
    .rodata
    table:
      .quad case0, case1, case2
      .quad 0              ; terminator
  )");
  auto r = recursive_traversal(img);
  ASSERT_EQ(r.jump_tables.size(), 1u);
  EXPECT_EQ(r.jump_tables[0].slots.size(), 3u);
  EXPECT_EQ(r.jump_tables[0].slots[0], kTextBase + 6);
  EXPECT_EQ(r.indirect_targets.size(), 3u);
  // All three cases were claimed as code.
  EXPECT_TRUE(r.dis.insns.count(kTextBase + 6));
  EXPECT_TRUE(r.dis.insns.count(kTextBase + 8));
}

TEST(RecursiveTraversal, DiscoversFunctionPointerImmediates) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r1, helper
      callr r1
      movi r0, 1
      syscall
    helper:
      movi r1, 0
      ret
  )");
  auto r = recursive_traversal(img);
  std::uint64_t helper = kTextBase + 6 + 2 + 6 + 2;
  EXPECT_TRUE(r.indirect_targets.count(helper));
  EXPECT_TRUE(r.function_entries.count(helper));
  EXPECT_TRUE(r.dis.insns.count(helper));
}

TEST(RecursiveTraversal, DiscoversPointersInDataSegments) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      loadpc r1, fptr
      callr r1
      movi r0, 1
      syscall
    helper:
      movi r1, 5
      ret
    .data
    fptr: .quad helper
  )");
  auto r = recursive_traversal(img);
  std::uint64_t helper = kTextBase + 6 + 2 + 6 + 2;
  EXPECT_TRUE(r.indirect_targets.count(helper));
}

TEST(RecursiveTraversal, RejectsAddressLikeDataThatIsNotCode) {
  // A data word that happens to land mid-string: validation must reject it
  // (the paper's Case-4 guard).
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall
    blob:
      .byte 0x00, 0x01, 0x00, 0x00   ; never valid VLX code
    .data
    lure: .quad blob
  )");
  auto r = recursive_traversal(img);
  std::uint64_t blob = kTextBase + 14;
  EXPECT_TRUE(r.rejected_seeds.count(blob));
  EXPECT_FALSE(r.dis.insns.count(blob));
}

TEST(Aggregate, ReachedCodeIsDefinite) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      jmp after
      .ascii "xyz"
    after:
      ret
  )");
  auto linear = linear_sweep(img.text());
  auto rec = recursive_traversal(img);
  auto agg = aggregate(img.text(), linear, rec);
  EXPECT_TRUE(agg.definite_code.contains(kTextBase));
  EXPECT_TRUE(agg.definite_code.contains(kTextBase + 8));  // the ret
  EXPECT_TRUE(agg.ambiguous.contains(kTextBase + 5));      // 'x'
  EXPECT_TRUE(agg.ambiguous.contains(kTextBase + 7));      // 'z'
  EXPECT_GE(agg.disagreements, 0u);
}

TEST(Aggregate, FullyCleanProgramHasNoAmbiguity) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  auto linear = linear_sweep(img.text());
  auto rec = recursive_traversal(img);
  auto agg = aggregate(img.text(), linear, rec);
  EXPECT_TRUE(agg.ambiguous.empty());
  EXPECT_EQ(agg.code_insns.size(), 3u);
}

// ---- pinning ----

TEST(Pinning, VerbatimRangeIntoMemsizeTailDoesNotUnderflow) {
  // A verbatim (ambiguous) range that extends past the text segment's file
  // bytes into its zero-filled memsize tail used to compute
  // `bytes.size() - off` with off beyond the file bytes: the subtraction
  // underflowed into a huge bogus span and the decoder read out of bounds.
  // The scan must clamp to the file bytes and terminate cleanly.
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall
    tail:
      .byte 0xde, 0xad
  )");
  zelf::Segment& text = img.text();
  const std::uint64_t file_end = text.vaddr + text.bytes.size();
  text.memsize = text.bytes.size() + 0x40;  // zero-filled in-memory tail

  auto linear = linear_sweep(img.text());
  auto rec = recursive_traversal(img);
  auto agg = aggregate(img.text(), linear, rec);
  // Force an ambiguous range straddling the end of the file bytes deep
  // into the memsize tail.
  agg.ambiguous.insert(file_end - 2, file_end + 0x20);

  PinSet pins = compute_pins(img, agg, rec, {});
  for (const auto& [addr, reason] : pins.pins) {
    (void)reason;
    EXPECT_LT(addr, file_end) << "pin conjured from the zero-filled tail";
  }
}

struct PinFixture {
  zelf::Image img;
  Aggregate agg;
  TraversalResult rec;

  explicit PinFixture(std::string_view src) : img(must_assemble(src)) {
    auto linear = linear_sweep(img.text());
    rec = recursive_traversal(img);
    agg = aggregate(img.text(), linear, rec);
  }

  PinSet pins(PinningOptions opts = {}) { return compute_pins(img, agg, rec, opts); }
};

TEST(Pinning, EntryIsAlwaysPinned) {
  PinFixture f(".entry main\n.text\nmain: movi r0, 1\nmovi r1, 0\nsyscall\n");
  auto p = f.pins();
  ASSERT_TRUE(p.pins.count(f.img.entry));
  EXPECT_TRUE(p.pins.at(f.img.entry) & kPinEntry);
}

TEST(Pinning, JumpTableSlotsPinned) {
  PinFixture f(R"(
    .entry main
    .text
    main:
      jmpt r0, table
    case0: ret
    case1: ret
    .rodata
    table: .quad case0, case1
           .quad 0
  )");
  auto p = f.pins();
  EXPECT_TRUE(p.pins.count(kTextBase + 6));
  EXPECT_TRUE(p.pins.count(kTextBase + 7));
  EXPECT_TRUE(p.pins.at(kTextBase + 6) & kPinJumpTable);
}

TEST(Pinning, CallReturnSitesPinnedWhenEnabled) {
  PinFixture f(R"(
    .entry main
    .text
    main:
      call helper
      movi r0, 1
      movi r1, 0
      syscall
    helper: ret
  )");
  PinningOptions on;
  on.pin_call_returns = true;
  auto with = f.pins(on);
  ASSERT_TRUE(with.pins.count(kTextBase + 5));
  EXPECT_TRUE(with.pins.at(kTextBase + 5) & kPinCallReturn);

  PinningOptions off;
  off.pin_call_returns = false;
  auto without = f.pins(off);
  EXPECT_FALSE(without.pins.count(kTextBase + 5));
}

TEST(Pinning, NaivePinAllPinsEveryReferenceableInstruction) {
  // Naive mode pins every instruction except ones within 5 bytes of an
  // existing pin (artificial pins never justify sleds or chains). Here the
  // packed nops thin out but the spaced instructions all pin.
  PinFixture f(".entry main\n.text\nmain: nop\nnop\nnop\nmovi r0, 1\nmovi r1, 0\nsyscall\n");
  PinningOptions opts;
  opts.naive_pin_all = true;
  auto p = f.pins(opts);
  EXPECT_EQ(p.pins.size(), 3u);  // nop@0 (entry), movi@9, syscall@15
  EXPECT_TRUE(p.pins.count(kTextBase + 9));
  EXPECT_TRUE(p.pins.count(kTextBase + 15));

  // On a program with no adjacent instructions, naive mode pins them all.
  PinFixture g(".entry main\n.text\nmain: movi r2, 5\nmovi r0, 1\nmovi r1, 0\nsyscall\n");
  auto q = g.pins(opts);
  EXPECT_EQ(q.pins.size(), g.agg.code_insns.size());
}

TEST(Pinning, ExtraFractionGrowsPMinusB) {
  std::string big = ".entry main\n.text\nmain:\n";
  for (int i = 0; i < 200; ++i) big += " addi r2, 1\n";
  big += " movi r0, 1\n movi r1, 0\n syscall\n";
  PinFixture f(big);
  PinningOptions none;
  none.pin_call_returns = false;
  PinningOptions half;
  half.pin_call_returns = false;
  half.extra_pin_fraction = 0.5;
  auto base = f.pins(none);
  auto grown = f.pins(half);
  EXPECT_GT(grown.pins.size(), base.pins.size() + 50);
}

TEST(Pinning, VerbatimEmbeddedBranchTargetsPinned) {
  // The unreachable blob contains a decodable jump to `after`; since the
  // blob stays in place (it may be data), `after` must stay reachable at
  // its original address.
  PinFixture f(R"(
    .entry main
    .text
    main:
      jeq after          ; conclusive edge keeps `after` definite code
      jmp out
    blob:
      .byte 0xEB, 0x00   ; jmp +0 -> resolves to `after`
    after:
      ret
    out:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  // Sanity: the blob stayed ambiguous.
  ASSERT_TRUE(f.agg.ambiguous.contains(kTextBase + 10));
  auto p = f.pins();
  std::uint64_t after = kTextBase + 12;
  ASSERT_TRUE(p.pins.count(after));
  EXPECT_TRUE(p.pins.at(after) & (kPinVerbatimTarget | kPinVerbatimFall));
}

TEST(Pinning, ClaimsUnderAStraddlingVerbatimInstructionStayVerbatim) {
  // `movi r5, tricky+2` seeds the traversal inside addi's immediate, whose
  // bytes decode as `jgt main; or r0, r0`. The seed is claimed first, so the
  // real fallthrough into `tricky` hits a tail overlap and leaves a 2-byte
  // ambiguous range. The addi executes in place and straddles the claims:
  // they must stay verbatim, the range must run to where the streams meet
  // (tricky+6), and the exits of every byte in it must be pinned.
  PinFixture f(R"(
    .entry main
    .text
    main:
      movi r5, tricky+2
      movi r4, 1
      movi r1, 0
    tricky:
      addi r4, 0x0009EA74
      movi r0, 1
      mov r1, r4
      syscall
      hlt
  )");
  const std::uint64_t tricky = kTextBase + 18;
  auto range = f.agg.ambiguous.interval_containing(tricky);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->begin, tricky);
  EXPECT_EQ(range->end, tricky + 6);
  EXPECT_FALSE(f.agg.code_insns.count(tricky + 2));
  EXPECT_FALSE(f.agg.code_insns.count(tricky + 4));
  EXPECT_TRUE(f.agg.code_insns.count(tricky + 6));
  EXPECT_EQ(f.agg.demoted.size(), 2u);

  auto p = f.pins();
  EXPECT_TRUE(p.covered_by_verbatim.count(tricky + 2));  // the code constant
  ASSERT_TRUE(p.pins.count(tricky + 6));                 // where the streams meet
  EXPECT_TRUE(p.pins.at(tricky + 6) & kPinVerbatimFall);
  ASSERT_TRUE(p.pins.count(kTextBase));  // the demoted jgt's target
  EXPECT_TRUE(p.pins.at(kTextBase) & kPinVerbatimTarget);
}

// ---- IR builder ----

TEST(IrBuilder, BuildsLinkedRows) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r2, 0
    loop:
      addi r2, 1
      cmpi r2, 3
      jlt loop
      movi r0, 1
      mov r1, r2
      syscall
  )");
  auto prog = build_ir(img);
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  EXPECT_EQ(prog->stats.code_insns, 7u);
  EXPECT_EQ(prog->stats.verbatim_ranges, 0u);

  // The jlt row must have a logical target (the addi at `loop`), not a
  // displacement.
  bool found_branch = false;
  prog->db.for_each_insn([&](const auto& row) {
    if (row.decoded.op == isa::Op::kJcc) {
      found_branch = true;
      ASSERT_NE(row.target, irdb::kNullInsn);
      EXPECT_EQ(prog->db.insn(row.target).orig_addr, kTextBase + 6);
    }
  });
  EXPECT_TRUE(found_branch);
}

TEST(IrBuilder, SynthesizesJumpForFallthroughIntoVerbatim) {
  // The syscall's fallthrough address holds bytes that do not decode, so
  // the traversal cannot claim them; the lifted syscall needs a synthetic
  // jump back to the original (now verbatim) address to preserve the
  // original in-place behaviour.
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall          ; has fallthrough into the blob below
      .byte 0x00, 0x01, 0x02, 0x03   ; undecodable
  )");
  auto prog = build_ir(img);
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  EXPECT_GE(prog->stats.verbatim_ranges, 1u);
  EXPECT_EQ(prog->stats.synthetic_jumps, 1u);
}

TEST(IrBuilder, PcRelativeRowsGetDataRefs) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      lea r1, value
      loadpc r2, value
      movi r0, 1
      movi r1, 0
      syscall
    .rodata
    value: .quad 7
  )");
  auto prog = build_ir(img);
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  int pc_rel = 0;
  prog->db.for_each_insn([&](const auto& row) {
    if (row.decoded.is_pc_relative_data()) {
      ++pc_rel;
      ASSERT_TRUE(row.data_ref.has_value());
      EXPECT_EQ(*row.data_ref, zelf::layout::kRodataBase);
    }
  });
  EXPECT_EQ(pc_rel, 2);
}

TEST(IrBuilder, GroupsInstructionsIntoFunctions) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      call helper
      movi r0, 1
      movi r1, 0
      syscall
    helper:
      movi r1, 3
      ret
  )");
  auto prog = build_ir(img);
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  EXPECT_EQ(prog->stats.functions, 2u);
  // helper's two instructions belong to the same function, distinct from
  // main's.
  irdb::FuncId main_f = irdb::kNullFunc, helper_f = irdb::kNullFunc;
  prog->db.for_each_insn([&](const auto& row) {
    if (!row.orig_addr) return;
    if (*row.orig_addr == img.entry) main_f = row.function;
    if (*row.orig_addr == kTextBase + 5 + 6 + 6 + 2) helper_f = row.function;
  });
  ASSERT_NE(main_f, irdb::kNullFunc);
  ASSERT_NE(helper_f, irdb::kNullFunc);
  EXPECT_NE(main_f, helper_f);
}

TEST(IrBuilder, StripsSymbolsFromWorkingCopy) {
  auto img = must_assemble(".entry main\n.text\n.func main\n nop\n hlt\n");
  ASSERT_FALSE(img.symbols.empty());
  auto prog = build_ir(img);
  ASSERT_TRUE(prog.ok());
  EXPECT_TRUE(prog->original.symbols.empty());
}

TEST(IrBuilder, PinsRecordedInDatabase) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r1, helper
      callr r1
      movi r0, 1
      syscall
    helper:
      movi r1, 9
      ret
  )");
  auto prog = build_ir(img);
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->db.pinned_at(img.entry) != irdb::kNullInsn, true);
  std::uint64_t helper = kTextBase + 6 + 2 + 6 + 2;
  irdb::InsnId h = prog->db.pinned_at(helper);
  ASSERT_NE(h, irdb::kNullInsn);
  EXPECT_EQ(prog->db.insn(h).orig_addr, helper);
}

TEST(IrBuilder, RejectsImageWithoutText) {
  zelf::Image img;
  img.entry = 0;
  EXPECT_FALSE(build_ir(img).ok());
}

}  // namespace
}  // namespace zipr::analysis
