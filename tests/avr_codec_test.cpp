// Encoder/decoder tests: hand-checked encodings from the AVR instruction-set
// manual, plus a property-style round-trip sweep over all 112 profiled
// classes with random operands.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "avr/codec.hpp"
#include "avr/grouping.hpp"
#include "avr/program.hpp"

namespace sidis::avr {
namespace {

Instruction make(Mnemonic m) {
  Instruction in;
  in.mnemonic = m;
  return in;
}

std::uint16_t encode_one(const Instruction& in) {
  const auto words = encode(in);
  EXPECT_EQ(words.size(), 1u);
  return words.front();
}

TEST(Encode, ManualCheckedOpcodes) {
  // Reference encodings computed by hand from the AVR ISA manual bit layouts.
  Instruction add = make(Mnemonic::kAdd);
  add.rd = 1;
  add.rr = 2;
  EXPECT_EQ(encode_one(add), 0x0C12);

  Instruction adc = make(Mnemonic::kAdc);
  adc.rd = 31;
  adc.rr = 31;
  EXPECT_EQ(encode_one(adc), 0x1FFF);

  Instruction ldi = make(Mnemonic::kLdi);
  ldi.rd = 16;
  ldi.k8 = 0xAB;
  EXPECT_EQ(encode_one(ldi), 0xEA0B);

  Instruction nop = make(Mnemonic::kNop);
  EXPECT_EQ(encode_one(nop), 0x0000);

  Instruction ret = make(Mnemonic::kRet);
  EXPECT_EQ(encode_one(ret), 0x9508);

  Instruction sbi = make(Mnemonic::kSbi);
  sbi.io = 5;
  sbi.bit = 5;
  EXPECT_EQ(encode_one(sbi), 0x9A2D);

  Instruction rjmp = make(Mnemonic::kRjmp);
  rjmp.rel = -1;
  EXPECT_EQ(encode_one(rjmp), 0xCFFF);

  Instruction com = make(Mnemonic::kCom);
  com.rd = 5;
  EXPECT_EQ(encode_one(com), 0x9450);

  Instruction movw = make(Mnemonic::kMovw);
  movw.rd = 2;
  movw.rr = 30;
  EXPECT_EQ(encode_one(movw), 0x011F);

  Instruction adiw = make(Mnemonic::kAdiw);
  adiw.rd = 26;
  adiw.k8 = 63;
  EXPECT_EQ(encode_one(adiw), 0x96DF);

  Instruction ld_x = make(Mnemonic::kLd);
  ld_x.mode = AddrMode::kX;
  ld_x.rd = 7;
  EXPECT_EQ(encode_one(ld_x), 0x907C);

  Instruction breq = make(Mnemonic::kBreq);
  breq.rel = 3;
  EXPECT_EQ(encode_one(breq), 0xF019);
}

TEST(Encode, TwoWordInstructions) {
  Instruction lds = make(Mnemonic::kLds);
  lds.mode = AddrMode::kAbs;
  lds.rd = 9;
  lds.k16 = 0x0123;
  const auto w = encode(lds);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 0x9090);
  EXPECT_EQ(w[1], 0x0123);

  Instruction jmp = make(Mnemonic::kJmp);
  jmp.k22 = 0x1234;
  const auto jw = encode(jmp);
  ASSERT_EQ(jw.size(), 2u);
  EXPECT_EQ(jw[0], 0x940C);
  EXPECT_EQ(jw[1], 0x1234);
}

TEST(Encode, OperandRangeChecks) {
  Instruction ldi = make(Mnemonic::kLdi);
  ldi.rd = 5;  // immediates need r16..r31
  EXPECT_THROW(encode(ldi), std::invalid_argument);

  Instruction movw = make(Mnemonic::kMovw);
  movw.rd = 3;  // must be even
  EXPECT_THROW(encode(movw), std::invalid_argument);

  Instruction adiw = make(Mnemonic::kAdiw);
  adiw.rd = 25;
  EXPECT_THROW(encode(adiw), std::invalid_argument);
  adiw.rd = 24;
  adiw.k8 = 64;  // 6-bit immediate
  EXPECT_THROW(encode(adiw), std::invalid_argument);

  Instruction brbs = make(Mnemonic::kBrbs);
  brbs.rel = 64;  // 7-bit signed
  EXPECT_THROW(encode(brbs), std::invalid_argument);

  Instruction sbi = make(Mnemonic::kSbi);
  sbi.io = 32;  // 5-bit I/O space
  EXPECT_THROW(encode(sbi), std::invalid_argument);

  Instruction ldd = make(Mnemonic::kLdd);
  ldd.mode = AddrMode::kYDisp;
  ldd.q = 64;  // 6-bit displacement
  EXPECT_THROW(encode(ldd), std::invalid_argument);

  Instruction ld = make(Mnemonic::kLd);
  ld.mode = AddrMode::kNone;  // missing addressing mode
  EXPECT_THROW(encode(ld), std::invalid_argument);
}

TEST(Encode, AliasesLowerToCanonicalEncodings) {
  Instruction tst = make(Mnemonic::kTst);
  tst.rd = 7;
  Instruction and_self = make(Mnemonic::kAnd);
  and_self.rd = 7;
  and_self.rr = 7;
  EXPECT_EQ(encode(tst), encode(and_self));

  Instruction ser = make(Mnemonic::kSer);
  ser.rd = 18;
  Instruction ldi_ff = make(Mnemonic::kLdi);
  ldi_ff.rd = 18;
  ldi_ff.k8 = 0xFF;
  EXPECT_EQ(encode(ser), encode(ldi_ff));

  Instruction cbr = make(Mnemonic::kCbr);
  cbr.rd = 20;
  cbr.k8 = 0x0F;
  Instruction andi = make(Mnemonic::kAndi);
  andi.rd = 20;
  andi.k8 = 0xF0;
  EXPECT_EQ(encode(cbr), encode(andi));

  Instruction sec = make(Mnemonic::kSec);
  Instruction bset0 = make(Mnemonic::kBset);
  bset0.sflag = kFlagC;
  EXPECT_EQ(encode(sec), encode(bset0));

  Instruction breq = make(Mnemonic::kBreq);
  breq.rel = 5;
  Instruction brbs1 = make(Mnemonic::kBrbs);
  brbs1.sflag = kFlagZ;
  brbs1.rel = 5;
  EXPECT_EQ(encode(breq), encode(brbs1));
}

TEST(Decode, UnknownOpcodeReturnsNullopt) {
  const std::uint16_t bad[] = {0xFFFF};
  // 0xFFFF == SBRS r31,7 actually decodes; use a genuinely reserved pattern.
  const std::uint16_t reserved[] = {0x9F80};  // MUL space is fine; use 0x95B8
  (void)bad;
  (void)reserved;
  const std::uint16_t really_bad[] = {0x95B8};  // reserved between WDR/LPM
  EXPECT_FALSE(decode(really_bad, 0).has_value());
}

TEST(Decode, TruncatedTwoWordFails) {
  Instruction lds = make(Mnemonic::kLds);
  lds.mode = AddrMode::kAbs;
  lds.k16 = 0x200;
  const auto words = encode(lds);
  const std::uint16_t only_first[] = {words[0]};
  EXPECT_FALSE(decode(only_first, 0).has_value());
}

TEST(Decode, PrettifyRestoresShorthands) {
  Instruction bset = make(Mnemonic::kBset);
  bset.sflag = kFlagC;
  EXPECT_EQ(prettify(bset).mnemonic, Mnemonic::kSec);
  Instruction brbc = make(Mnemonic::kBrbc);
  brbc.sflag = kFlagZ;
  brbc.rel = 2;
  const Instruction pretty = prettify(brbc);
  EXPECT_EQ(pretty.mnemonic, Mnemonic::kBrne);
  EXPECT_EQ(pretty.rel, 2);
}

TEST(Decode, LdYZeroDisplacementDecodesAsLd) {
  Instruction ld = make(Mnemonic::kLd);
  ld.mode = AddrMode::kY;
  ld.rd = 4;
  const auto words = encode(ld);
  const auto d = decode(words, 0);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->instr.mnemonic, Mnemonic::kLd);
  EXPECT_EQ(d->instr.mode, AddrMode::kY);
}

// ---- property sweep: encode/decode round-trip over all 112 classes --------

class CodecRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTrip, RandomInstancesSurviveEncodeDecode) {
  std::mt19937_64 rng(0xC0DEC + GetParam());
  const ClassSpec& spec = instruction_classes()[GetParam()];
  for (int rep = 0; rep < 50; ++rep) {
    const Instruction in = random_instance(GetParam(), rng);
    const Instruction canon = canonicalize(in);
    const auto words = encode(in);
    ASSERT_FALSE(words.empty()) << spec.name;
    const auto decoded = decode(words, 0);
    ASSERT_TRUE(decoded.has_value()) << spec.name;
    EXPECT_EQ(decoded->words, words.size());
    EXPECT_EQ(decoded->instr, canon)
        << spec.name << ": " << to_string(canon) << " vs " << to_string(decoded->instr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, CodecRoundTrip, ::testing::Range<std::size_t>(0, 112),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      std::string n = instruction_classes()[param_info.param].name;
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// ---- property sweep: residual (non-profiled) mnemonics ---------------------

TEST(CodecRoundTrip, ResidualMnemonicsSurviveEncodeDecode) {
  // The residual instructions live outside the 112 profiled classes, so the
  // parameterized sweep above never touches them; randomize their operands
  // here.  Fields are drawn uniformly over each mnemonic's legal range.
  std::mt19937_64 rng(0x0E51D);
  std::uniform_int_distribution<int> reg(0, 31);
  std::uniform_int_distribution<int> high_reg(16, 31);
  std::uniform_int_distribution<int> io6(0, 63);
  std::uniform_int_distribution<int> rel12(-2048, 2047);
  std::uniform_int_distribution<std::uint32_t> k22(0, 0x3FFFFF);

  const auto randomized = [&](Mnemonic m) {
    Instruction in = make(m);
    switch (m) {
      case Mnemonic::kIn:
        in.rd = static_cast<std::uint8_t>(reg(rng));
        in.io = static_cast<std::uint8_t>(io6(rng));
        break;
      case Mnemonic::kOut:
        in.rr = static_cast<std::uint8_t>(reg(rng));
        in.io = static_cast<std::uint8_t>(io6(rng));
        break;
      case Mnemonic::kPush:
      case Mnemonic::kPop:
        in.rd = static_cast<std::uint8_t>(reg(rng));
        break;
      case Mnemonic::kMul:
        in.rd = static_cast<std::uint8_t>(reg(rng));
        in.rr = static_cast<std::uint8_t>(reg(rng));
        break;
      case Mnemonic::kMuls:
        in.rd = static_cast<std::uint8_t>(high_reg(rng));
        in.rr = static_cast<std::uint8_t>(high_reg(rng));
        break;
      case Mnemonic::kRcall:
        in.rel = static_cast<std::int16_t>(rel12(rng));
        break;
      case Mnemonic::kCall:
        in.k22 = k22(rng);
        break;
      default:  // NOP, RET, RETI, ICALL, IJMP, SLEEP, WDR, BREAK, CLI
        break;
    }
    return in;
  };

  for (Mnemonic m : {Mnemonic::kNop, Mnemonic::kIn, Mnemonic::kOut, Mnemonic::kPush,
                     Mnemonic::kPop, Mnemonic::kRet, Mnemonic::kReti, Mnemonic::kRcall,
                     Mnemonic::kCall, Mnemonic::kIcall, Mnemonic::kIjmp, Mnemonic::kMul,
                     Mnemonic::kMuls, Mnemonic::kSleep, Mnemonic::kWdr, Mnemonic::kBreak,
                     Mnemonic::kCli}) {
    for (int rep = 0; rep < 25; ++rep) {
      const Instruction in = randomized(m);
      const Instruction canon = canonicalize(in);  // CLI lowers to BCLR I
      const auto words = encode(in);
      ASSERT_FALSE(words.empty()) << name(m);
      const auto decoded = decode(words, 0);
      ASSERT_TRUE(decoded.has_value()) << name(m) << ": " << to_string(in);
      EXPECT_EQ(decoded->words, words.size()) << name(m);
      EXPECT_EQ(decoded->instr, canon)
          << name(m) << ": " << to_string(canon) << " vs " << to_string(decoded->instr);
    }
  }
}

// ---- reserved / invalid opcode words ---------------------------------------

TEST(Decode, ReservedWordsAreRejectedIndependentlyOfContext) {
  // Sweep the full 16-bit space once to harvest the decoder's reject set,
  // then pin down its properties: it is non-empty, rejection does not depend
  // on the trailing word, and decode_program truncates at the first reserved
  // word instead of inventing instructions.
  std::vector<std::uint16_t> reserved;
  for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
    const std::uint16_t code[2] = {static_cast<std::uint16_t>(w), 0x0000};
    if (!decode(code, 0).has_value()) reserved.push_back(static_cast<std::uint16_t>(w));
  }
  ASSERT_FALSE(reserved.empty());
  // The known hole between WDR (0x95A8) and LPM (0x95C8) must be in it.
  EXPECT_NE(std::find(reserved.begin(), reserved.end(), 0x95B8), reserved.end());

  std::mt19937_64 rng(0xDEAD);
  std::uniform_int_distribution<std::uint32_t> any(0, 0xFFFF);
  for (std::size_t i = 0; i < reserved.size(); i += 97) {  // sampled sweep
    const std::uint16_t w = reserved[i];
    const std::uint16_t code[2] = {w, static_cast<std::uint16_t>(any(rng))};
    EXPECT_FALSE(decode(code, 0).has_value()) << "word " << w;
  }

  const std::uint16_t stream[] = {0x0000 /* NOP */, reserved.front(), 0x9508 /* RET */};
  const auto program = decode_program(stream);
  ASSERT_EQ(program.size(), 1u);  // truncated at the reserved word
  EXPECT_EQ(program[0].mnemonic, Mnemonic::kNop);
}

TEST(EncodeProgram, ConcatenatesWords) {
  Instruction nop = make(Mnemonic::kNop);
  Instruction jmp = make(Mnemonic::kJmp);
  jmp.k22 = 4;
  const Program p{nop, jmp, nop};
  const auto words = encode_program(p);
  EXPECT_EQ(words.size(), 4u);
  const auto back = decode_program(words);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].mnemonic, Mnemonic::kJmp);
}

}  // namespace
}  // namespace sidis::avr
