// Fuzz/property tests for the binary codec and the functional simulator:
// the decoder must be total (decode-or-reject, never crash) over the whole
// 16-bit opcode space, decoding must be a projection (decode . encode .
// decode == decode), and execution must be deterministic.
#include <gtest/gtest.h>

#include <random>

#include "avr/codec.hpp"
#include "avr/cpu.hpp"
#include "avr/program.hpp"

namespace sidis::avr {
namespace {

TEST(CodecFuzz, DecoderIsTotalOverTheOpcodeSpace) {
  // Sweep all 65536 first words (with a plausible second word in case the
  // decoder wants one).  Every outcome must be "decoded" or "nullopt" --
  // never a crash, and decoded results must re-encode to the same bits.
  std::size_t decoded_count = 0;
  for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
    const std::uint16_t code[2] = {static_cast<std::uint16_t>(w), 0x0123};
    const auto d = decode(code, 0);
    if (!d) continue;
    ++decoded_count;
    const auto re = encode(d->instr);
    ASSERT_EQ(re.size(), d->words) << "word " << w;
    EXPECT_EQ(re[0], static_cast<std::uint16_t>(w)) << "word " << w;
    if (d->words == 2) {
      EXPECT_EQ(re[1], 0x0123) << "word " << w;
    }
  }
  // The AVR map is dense: most of the space decodes.
  EXPECT_GT(decoded_count, 50000u);
}

TEST(CodecFuzz, DecodeIsAProjection) {
  std::mt19937_64 rng(0xF022);
  for (int rep = 0; rep < 2000; ++rep) {
    const Instruction in = random_any_instance(rng);
    const auto w1 = encode(in);
    const auto d1 = decode(w1, 0);
    ASSERT_TRUE(d1.has_value()) << to_string(in);
    const auto w2 = encode(d1->instr);
    EXPECT_EQ(w2, w1) << to_string(in);
    const auto d2 = decode(w2, 0);
    ASSERT_TRUE(d2.has_value());
    EXPECT_EQ(d2->instr, d1->instr) << to_string(in);
  }
}

TEST(CodecFuzz, PrettifyPreservesEncoding) {
  std::mt19937_64 rng(0xF055);
  for (int rep = 0; rep < 2000; ++rep) {
    const Instruction in = canonicalize(random_any_instance(rng));
    const Instruction pretty = prettify(in);
    EXPECT_EQ(encode(pretty), encode(in)) << to_string(in);
  }
}

TEST(CpuFuzz, RandomLinearProgramsExecuteDeterministically) {
  std::mt19937_64 rng(0xC9);
  for (int rep = 0; rep < 60; ++rep) {
    // A random linear-safe program of 20 instructions.
    Program p;
    while (p.size() < 20) {
      const Instruction in = random_any_instance(rng);
      if (is_linear_safe(in)) p.push_back(in);
    }
    const auto run_once = [&](Cpu& cpu) {
      cpu.load_program(p);
      for (unsigned r = 0; r < 32; ++r) cpu.set_reg(r, static_cast<std::uint8_t>(r * 7));
      return cpu.run(64);
    };
    Cpu a, b;
    const auto ra = run_once(a);
    const auto rb = run_once(b);
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_EQ(ra.size(), p.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].opcode, rb[i].opcode);
      EXPECT_EQ(ra[i].rd_after, rb[i].rd_after);
      EXPECT_EQ(ra[i].sreg_after, rb[i].sreg_after);
      EXPECT_EQ(ra[i].cycles, rb[i].cycles);
    }
    EXPECT_EQ(a.cycle_count(), b.cycle_count());
    EXPECT_TRUE(a.halted());
  }
}

TEST(CpuFuzz, CycleCountsMatchDatasheetBaseCosts) {
  // For linear-safe instructions (no skips/branches taken), the consumed
  // cycles must equal the mnemonic's datasheet base cost.
  std::mt19937_64 rng(0xCC);
  for (int rep = 0; rep < 500; ++rep) {
    Instruction in = random_any_instance(rng);
    if (!is_linear_safe(in)) continue;
    Cpu cpu;
    cpu.load_program(std::vector<Instruction>{in});
    const ExecRecord rec = cpu.step();
    EXPECT_EQ(rec.cycles, info(canonicalize(in).mnemonic).base_cycles) << to_string(in);
  }
}

TEST(CpuFuzz, ComparesNeverWriteBack) {
  std::mt19937_64 rng(0xCF);
  for (Mnemonic m : {Mnemonic::kCp, Mnemonic::kCpc, Mnemonic::kCpi}) {
    const auto cls = class_index(m);
    ASSERT_TRUE(cls.has_value());
    for (int rep = 0; rep < 50; ++rep) {
      const Instruction in = random_instance(*cls, rng);
      Cpu cpu;
      cpu.load_program(std::vector<Instruction>{in});
      std::uniform_int_distribution<int> byte(0, 255);
      for (unsigned r = 0; r < 32; ++r) cpu.set_reg(r, static_cast<std::uint8_t>(byte(rng)));
      const std::uint8_t before = cpu.reg(in.rd);
      cpu.step();
      EXPECT_EQ(cpu.reg(in.rd), before) << to_string(in);
    }
  }
}

TEST(CpuFuzz, SregOnlyTouchedByArchitecturalWriters) {
  // MOV/MOVW/SWAP/LDI and all loads/stores leave SREG untouched.
  std::mt19937_64 rng(0x5E);
  for (Mnemonic m : {Mnemonic::kMov, Mnemonic::kMovw, Mnemonic::kSwap, Mnemonic::kLdi,
                     Mnemonic::kSts, Mnemonic::kLds}) {
    const auto cls = m == Mnemonic::kSts
                         ? class_index(m, AddrMode::kAbs)
                         : (m == Mnemonic::kLds ? class_index(m, AddrMode::kAbs)
                                                : class_index(m));
    ASSERT_TRUE(cls.has_value());
    for (int rep = 0; rep < 30; ++rep) {
      const Instruction in = random_instance(*cls, rng);
      Cpu cpu;
      cpu.load_program(std::vector<Instruction>{in});
      cpu.set_sreg(0xA5);
      cpu.step();
      EXPECT_EQ(cpu.sreg(), 0xA5) << to_string(in);
    }
  }
}

TEST(CpuFuzz, PointerWrapWritesSomewhereSafe) {
  Instruction st;
  st.mnemonic = Mnemonic::kSt;
  st.mode = AddrMode::kXPostInc;
  st.rr = 5;
  Cpu cpu;
  cpu.load_program(std::vector<Instruction>{st});
  cpu.set_x(0xFFFF);
  cpu.set_reg(5, 0x77);
  EXPECT_NO_THROW(cpu.step());
  EXPECT_EQ(cpu.x(), 0x0000);  // post-increment wrapped
}

}  // namespace
}  // namespace sidis::avr
