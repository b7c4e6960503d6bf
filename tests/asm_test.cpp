// Tests for the VLX assembler: directives, operand forms, label/expression
// resolution, section layout, and error reporting.
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "isa/insn.h"
#include "zelf/image.h"

namespace zipr::assembler {
namespace {

using zelf::layout::kDataBase;
using zelf::layout::kRodataBase;
using zelf::layout::kTextBase;

Result<zelf::Image> asm_ok(std::string_view src) {
  auto img = assemble(src);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
  return img;
}

TEST(Asm, MinimalProgram) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      movi r0, 1       ; terminate
      movi r1, 42
      syscall
  )");
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->entry, kTextBase);
  EXPECT_EQ(img->text().bytes.size(), 6u + 6u + 2u);
}

TEST(Asm, EntryCanBeNonFirstLabel) {
  auto img = asm_ok(R"(
    .entry start
    .text
    helper:
      ret
    start:
      nop
      hlt
  )");
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->entry, kTextBase + 1);
}

TEST(Asm, BranchEncodingAndTargets) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      jmp done        ; rel32, 5 bytes at 0x400000
      nop
    done:
      hlt
  )");
  ASSERT_TRUE(img.ok());
  const auto& text = img->text().bytes;
  auto j = isa::decode(text);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->op, isa::Op::kJmp);
  EXPECT_EQ(j->target(kTextBase), kTextBase + 6);  // past jmp+nop
}

TEST(Asm, ForcedRel8Branch) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      jmp8 done
      nop
    done:
      hlt
  )");
  ASSERT_TRUE(img.ok());
  auto j = isa::decode(img->text().bytes);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->width, isa::BranchWidth::kRel8);
  EXPECT_EQ(j->length, 2);
  EXPECT_EQ(j->target(kTextBase), kTextBase + 3);
}

TEST(Asm, Rel8OutOfRangeIsError) {
  std::string src = ".entry main\n.text\nmain:\n jmp8 done\n";
  for (int i = 0; i < 50; ++i) src += " movi r0, 1\n";  // 300 bytes
  src += "done:\n hlt\n";
  auto img = assemble(src);
  ASSERT_FALSE(img.ok());
  EXPECT_NE(img.error().message.find("rel8"), std::string::npos);
}

TEST(Asm, BackwardBranch) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
    loop:
      addi r0, 1
      cmpi r0, 10
      jlt loop
      hlt
  )");
  ASSERT_TRUE(img.ok());
  // Decode third instruction (offset 12).
  Bytes tail(img->text().bytes.begin() + 12, img->text().bytes.end());
  auto j = isa::decode(tail);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->op, isa::Op::kJcc);
  EXPECT_EQ(j->cond, isa::Cond::kLt);
  EXPECT_EQ(j->target(kTextBase + 12), kTextBase);
}

TEST(Asm, AllConditionalMnemonics) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      jeq t
      jne t
      jlt t
      jle t
      jgt t
      jge t
      jb t
      jae t
    t: hlt
  )");
  ASSERT_TRUE(img.ok());
  std::size_t off = 0;
  using isa::Cond;
  for (Cond c : {Cond::kEq, Cond::kNe, Cond::kLt, Cond::kLe, Cond::kGt, Cond::kGe,
                 Cond::kB, Cond::kAe}) {
    Bytes at(img->text().bytes.begin() + static_cast<long>(off), img->text().bytes.end());
    auto j = isa::decode(at);
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j->cond, c);
    off += j->length;
  }
}

TEST(Asm, MemoryOperands) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      load r1, [r2+8]
      store [r3-16], r4
      load8 r0, [sp]
      store8 [sp+1], r0
      hlt
  )");
  ASSERT_TRUE(img.ok());
  auto b = img->text().bytes;
  auto i1 = isa::decode(b);
  ASSERT_TRUE(i1.ok());
  EXPECT_EQ(i1->op, isa::Op::kLoad);
  EXPECT_EQ(i1->ra, 1);
  EXPECT_EQ(i1->rb, 2);
  EXPECT_EQ(i1->imm, 8);
  Bytes b2(b.begin() + 6, b.end());
  auto i2 = isa::decode(b2);
  ASSERT_TRUE(i2.ok());
  EXPECT_EQ(i2->op, isa::Op::kStore);
  EXPECT_EQ(i2->ra, 3);
  EXPECT_EQ(i2->rb, 4);
  EXPECT_EQ(i2->imm, -16);
  Bytes b3(b.begin() + 12, b.end());
  auto i3 = isa::decode(b3);
  ASSERT_TRUE(i3.ok());
  EXPECT_EQ(i3->rb, isa::kSpReg);
}

TEST(Asm, LeaResolvesLabelToPcRelative) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      lea r1, table
      hlt
    .rodata
    table:
      .quad 1, 2
  )");
  ASSERT_TRUE(img.ok());
  auto i = isa::decode(img->text().bytes);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->op, isa::Op::kLea);
  EXPECT_EQ(i->pc_ref(kTextBase), kRodataBase);
}

TEST(Asm, LabelAsImmediateIsAbsoluteAddress) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      movi r1, helper    ; function pointer -> indirect branch target
      callr r1
      hlt
    helper:
      ret
  )");
  ASSERT_TRUE(img.ok());
  auto i = isa::decode(img->text().bytes);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(i->imm), kTextBase + 6 + 2 + 1);
}

TEST(Asm, LabelPlusOffsetExpression) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      movi r0, buf+8
      hlt
    .data
    buf:
      .space 16
  )");
  ASSERT_TRUE(img.ok());
  auto i = isa::decode(img->text().bytes);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(i->imm), kDataBase + 8);
}

TEST(Asm, DataDirectives) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main: hlt
    .rodata
    bytes:  .byte 1, 2, 0xff, 'A'
    words:  .word 0x1234
    longs:  .long 0xdeadbeef
    quads:  .quad main
    str:    .asciz "hi\n"
  )");
  ASSERT_TRUE(img.ok());
  const auto* rod = img->segment_of(zelf::SegKind::kRodata);
  ASSERT_NE(rod, nullptr);
  const auto& b = rod->bytes;
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[2], 0xff);
  EXPECT_EQ(b[3], 'A');
  EXPECT_EQ(get_u16(b, 4), 0x1234);
  EXPECT_EQ(get_u32(b, 6), 0xdeadbeefu);
  EXPECT_EQ(get_u64(b, 10), kTextBase);
  EXPECT_EQ(b[18], 'h');
  EXPECT_EQ(b[20], '\n');
  EXPECT_EQ(b[21], 0);
}

TEST(Asm, LiteralsSpanTheFull64BitRange) {
  // Decimal and hex literals up to UINT64_MAX name a 64-bit pattern.
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      movi64 r1, 18446744073709551615
      movi64 r2, 0xffffffffffffffff
      movi64 r3, 9223372036854775808
      movi64 r4, -9223372036854775808
      hlt
    .rodata
    q: .quad 18446744073709551615, 0xFFFFFFFFFFFFFFFF
  )");
  ASSERT_TRUE(img.ok());
  const Bytes& text = img->text().bytes;
  std::size_t off = 0;
  const std::int64_t want[] = {-1, -1, INT64_MIN, INT64_MIN};
  for (std::int64_t w : want) {
    auto i = isa::decode(ByteView(text.data() + off, text.size() - off));
    ASSERT_TRUE(i.ok());
    EXPECT_EQ(i->op, isa::Op::kMovI64);
    EXPECT_EQ(i->imm, w);
    off += i->length;
  }
  const auto* rod = img->segment_of(zelf::SegKind::kRodata);
  ASSERT_NE(rod, nullptr);
  EXPECT_EQ(get_u64(rod->bytes, 0), ~std::uint64_t{0});
  EXPECT_EQ(get_u64(rod->bytes, 8), ~std::uint64_t{0});
}

TEST(Asm, JumpTableViaQuadLabels) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      jmpt r0, table
    case0: hlt
    case1: ret
    .rodata
    table:
      .quad case0, case1
  )");
  ASSERT_TRUE(img.ok());
  const auto& rod = img->segment_of(zelf::SegKind::kRodata)->bytes;
  EXPECT_EQ(get_u64(rod, 0), kTextBase + 6);
  EXPECT_EQ(get_u64(rod, 8), kTextBase + 7);
}

TEST(Asm, BssTakesNoFileBytes) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main: hlt
    .bss
    buf: .space 4096
  )");
  ASSERT_TRUE(img.ok());
  const auto* bss = img->segment_of(zelf::SegKind::kBss);
  ASSERT_NE(bss, nullptr);
  EXPECT_EQ(bss->memsize, 4096u);
  EXPECT_TRUE(bss->bytes.empty());
}

TEST(Asm, BssRejectsData) {
  auto img = assemble(".entry m\n.text\nm: hlt\n.bss\n.byte 1\n");
  EXPECT_FALSE(img.ok());
}

TEST(Asm, AlignPadsWithNopInText) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      nop
      .align 8
    aligned:
      hlt
  )");
  ASSERT_TRUE(img.ok());
  const auto& b = img->text().bytes;
  ASSERT_EQ(b.size(), 9u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b[i], 0x90) << i;
  EXPECT_EQ(b[8], 0xF4);
}

TEST(Asm, OrgAdvances) {
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      nop
      .org 0x400010
    there:
      hlt
  )");
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->text().bytes.size(), 0x11u);
  EXPECT_EQ(img->text().bytes[0x10], 0xF4);
}

TEST(Asm, OrgBackwardsIsError) {
  auto img = assemble(".entry m\n.text\nm: nop\nnop\n.org 0x400001\nhlt\n");
  EXPECT_FALSE(img.ok());
}

TEST(Asm, DataInTextViaByteDirective) {
  // Embedding data in the code section is legal (and is how tests recreate
  // the paper's code/data ambiguity).
  auto img = asm_ok(R"(
    .entry main
    .text
    main:
      jmp after
    embedded:
      .byte 0x68, 0x65, 0x6c, 0x6c, 0x6f   ; "hello" inside .text
    after:
      hlt
  )");
  ASSERT_TRUE(img.ok());
  const auto& b = img->text().bytes;
  EXPECT_EQ(b[5], 0x68);
  EXPECT_EQ(b[9], 0x6f);
}

TEST(Asm, SymbolsEmittedWithKinds) {
  auto img = asm_ok(R"(
    .entry main
    .text
    .func main
      nop
      hlt
    .data
    counter: .quad 0
  )");
  ASSERT_TRUE(img.ok());
  bool saw_func = false, saw_obj = false;
  for (const auto& s : img->symbols) {
    if (s.name == "main") {
      EXPECT_EQ(s.kind, zelf::Symbol::Kind::kFunc);
      saw_func = true;
    }
    if (s.name == "counter") {
      EXPECT_EQ(s.kind, zelf::Symbol::Kind::kObject);
      saw_obj = true;
    }
  }
  EXPECT_TRUE(saw_func);
  EXPECT_TRUE(saw_obj);
}

TEST(Asm, SymbolsSuppressedOnRequest) {
  Options o;
  o.emit_symbols = false;
  auto img = assemble(".entry m\n.text\nm: hlt\n", o);
  ASSERT_TRUE(img.ok());
  EXPECT_TRUE(img->symbols.empty());
}

struct ErrorCase {
  const char* name;
  const char* src;
  const char* expect_fragment;
};

// Print a case by its name: gtest's default dumps the struct's bytes, which are
// pointers that move with address randomisation, so the listed test name
// (and the ctest name built from it) would differ on every discovery.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class AsmErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(AsmErrorTest, ReportsLineAndCause) {
  auto img = assemble(GetParam().src);
  ASSERT_FALSE(img.ok()) << "expected failure";
  EXPECT_NE(img.error().message.find(GetParam().expect_fragment), std::string::npos)
      << "got: " << img.error().message;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AsmErrorTest,
    ::testing::Values(
        ErrorCase{"NoEntry", ".text\nm: hlt\n", "entry"},
        ErrorCase{"UndefinedEntry", ".entry nope\n.text\nm: hlt\n", "nope"},
        ErrorCase{"UndefinedSymbol", ".entry m\n.text\nm: jmp nowhere\n", "nowhere"},
        ErrorCase{"DuplicateLabel", ".entry m\n.text\nm: nop\nm: hlt\n", "duplicate"},
        ErrorCase{"BadMnemonic", ".entry m\n.text\nm: frob r0\n", "frob"},
        ErrorCase{"BadRegister", ".entry m\n.text\nm: push r9\n", "register"},
        ErrorCase{"WrongOperandCount", ".entry m\n.text\nm: add r0\n", "expects"},
        ErrorCase{"InsnInData", ".entry m\n.text\nm: hlt\n.data\nnop\n", "only allowed in .text"},
        ErrorCase{"BadDirective", ".entry m\n.text\nm: hlt\n.bogus\n", "bogus"},
        ErrorCase{"BadAlign", ".entry m\n.text\nm: hlt\n.align 3\n", "align"},
        ErrorCase{"DecimalAbove64Bits",
                  ".entry m\n.text\nm: movi64 r1, 18446744073709551616\n", "2^64-1"},
        ErrorCase{"HexAbove64Bits", ".entry m\n.text\nm: hlt\n.rodata\n.quad 0x10000000000000000\n",
                  "2^64-1"}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) { return info.param.name; });

TEST(Asm, ErrorsCarryLineNumbers) {
  auto img = assemble(".entry m\n.text\nm: nop\n badop r1\n");
  ASSERT_FALSE(img.ok());
  EXPECT_NE(img.error().message.find("line 4"), std::string::npos) << img.error().message;
}

TEST(Asm, CommentsAndBlankLines) {
  auto img = asm_ok(R"(
    ; full-line comment
    # hash comment
    .entry main
    .text
    main:        ; trailing comment
      movi r0, ';'   ; a char literal containing the comment marker
      hlt
  )");
  ASSERT_TRUE(img.ok());
  auto i = isa::decode(img->text().bytes);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->imm, ';');
}

}  // namespace
}  // namespace zipr::assembler
