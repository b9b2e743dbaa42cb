#include "avr/isa.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace sidis::avr {

namespace {

using OS = OperandSignature;

// Indexed by Mnemonic; order must match the enum exactly (verified by a
// static_assert on the count and by unit tests that round-trip every name).
constexpr std::array<MnemonicInfo, static_cast<std::size_t>(Mnemonic::kCount)> kInfo = {{
    // group 1
    {"ADD", OS::kRdRr, 1, 1, 1, "Add without carry"},
    {"ADC", OS::kRdRr, 1, 1, 1, "Add with carry"},
    {"SUB", OS::kRdRr, 1, 1, 1, "Subtract without carry"},
    {"SBC", OS::kRdRr, 1, 1, 1, "Subtract with carry"},
    {"AND", OS::kRdRr, 1, 1, 1, "Logical AND"},
    {"OR", OS::kRdRr, 1, 1, 1, "Logical OR"},
    {"EOR", OS::kRdRr, 1, 1, 1, "Exclusive OR"},
    {"CPSE", OS::kRdRr, 1, 1, 1, "Compare, skip if equal"},
    {"CP", OS::kRdRr, 1, 1, 1, "Compare"},
    {"CPC", OS::kRdRr, 1, 1, 1, "Compare with carry"},
    {"MOV", OS::kRdRr, 1, 1, 1, "Copy register"},
    {"MOVW", OS::kRdRr, 1, 1, 1, "Copy register word"},
    // group 2
    {"ADIW", OS::kRdK, 2, 2, 1, "Add immediate to word"},
    {"SUBI", OS::kRdK, 2, 1, 1, "Subtract immediate"},
    {"SBCI", OS::kRdK, 2, 1, 1, "Subtract immediate with carry"},
    {"SBIW", OS::kRdK, 2, 2, 1, "Subtract immediate from word"},
    {"ANDI", OS::kRdK, 2, 1, 1, "Logical AND with immediate"},
    {"ORI", OS::kRdK, 2, 1, 1, "Logical OR with immediate"},
    {"SBR", OS::kRdK, 2, 1, 1, "Set bits in register (ORI alias)"},
    {"CBR", OS::kRdK, 2, 1, 1, "Clear bits in register (ANDI alias)"},
    {"CPI", OS::kRdK, 2, 1, 1, "Compare with immediate"},
    {"LDI", OS::kRdK, 2, 1, 1, "Load immediate"},
    // group 3
    {"COM", OS::kRd, 3, 1, 1, "One's complement"},
    {"NEG", OS::kRd, 3, 1, 1, "Two's complement"},
    {"INC", OS::kRd, 3, 1, 1, "Increment"},
    {"DEC", OS::kRd, 3, 1, 1, "Decrement"},
    {"TST", OS::kRd, 3, 1, 1, "Test for zero or minus (AND alias)"},
    {"CLR", OS::kRd, 3, 1, 1, "Clear register (EOR alias)"},
    {"SER", OS::kRd, 3, 1, 1, "Set all bits (LDI 0xFF alias)"},
    {"LSL", OS::kRd, 3, 1, 1, "Logical shift left (ADD alias)"},
    {"LSR", OS::kRd, 3, 1, 1, "Logical shift right"},
    {"ROL", OS::kRd, 3, 1, 1, "Rotate left through carry (ADC alias)"},
    {"ROR", OS::kRd, 3, 1, 1, "Rotate right through carry"},
    {"ASR", OS::kRd, 3, 1, 1, "Arithmetic shift right"},
    {"SWAP", OS::kRd, 3, 1, 1, "Swap nibbles"},
    // group 4
    {"RJMP", OS::kRelK, 4, 2, 1, "Relative jump"},
    {"JMP", OS::kAbsK, 4, 3, 2, "Absolute jump"},
    {"BREQ", OS::kRelK, 4, 1, 1, "Branch if equal (Z set)"},
    {"BRNE", OS::kRelK, 4, 1, 1, "Branch if not equal (Z clear)"},
    {"BRCS", OS::kRelK, 4, 1, 1, "Branch if carry set"},
    {"BRCC", OS::kRelK, 4, 1, 1, "Branch if carry clear"},
    {"BRSH", OS::kRelK, 4, 1, 1, "Branch if same or higher (C clear)"},
    {"BRLO", OS::kRelK, 4, 1, 1, "Branch if lower (C set)"},
    {"BRMI", OS::kRelK, 4, 1, 1, "Branch if minus (N set)"},
    {"BRPL", OS::kRelK, 4, 1, 1, "Branch if plus (N clear)"},
    {"BRGE", OS::kRelK, 4, 1, 1, "Branch if greater or equal, signed (S clear)"},
    {"BRLT", OS::kRelK, 4, 1, 1, "Branch if less than, signed (S set)"},
    {"BRHS", OS::kRelK, 4, 1, 1, "Branch if half-carry set"},
    {"BRHC", OS::kRelK, 4, 1, 1, "Branch if half-carry clear"},
    {"BRTS", OS::kRelK, 4, 1, 1, "Branch if T set"},
    {"BRTC", OS::kRelK, 4, 1, 1, "Branch if T clear"},
    {"BRVS", OS::kRelK, 4, 1, 1, "Branch if overflow set"},
    {"BRVC", OS::kRelK, 4, 1, 1, "Branch if overflow clear"},
    {"BRIE", OS::kRelK, 4, 1, 1, "Branch if interrupts enabled"},
    {"BRID", OS::kRelK, 4, 1, 1, "Branch if interrupts disabled"},
    // group 5
    {"LDS", OS::kRdMem, 5, 2, 2, "Load direct from data space"},
    {"LD", OS::kRdMem, 5, 2, 1, "Load indirect"},
    {"LDD", OS::kRdMem, 5, 2, 1, "Load indirect with displacement"},
    {"STS", OS::kRrMem, 5, 2, 2, "Store direct to data space"},
    {"ST", OS::kRrMem, 5, 2, 1, "Store indirect"},
    {"STD", OS::kRrMem, 5, 2, 1, "Store indirect with displacement"},
    // group 6
    {"SEC", OS::kNone, 6, 1, 1, "Set carry flag"},
    {"CLC", OS::kNone, 6, 1, 1, "Clear carry flag"},
    {"SEN", OS::kNone, 6, 1, 1, "Set negative flag"},
    {"CLN", OS::kNone, 6, 1, 1, "Clear negative flag"},
    {"SEZ", OS::kNone, 6, 1, 1, "Set zero flag"},
    {"CLZ", OS::kNone, 6, 1, 1, "Clear zero flag"},
    {"SEI", OS::kNone, 6, 1, 1, "Set interrupt enable"},
    {"SES", OS::kNone, 6, 1, 1, "Set signed flag"},
    {"CLS", OS::kNone, 6, 1, 1, "Clear signed flag"},
    {"SEV", OS::kNone, 6, 1, 1, "Set overflow flag"},
    {"CLV", OS::kNone, 6, 1, 1, "Clear overflow flag"},
    {"SET", OS::kNone, 6, 1, 1, "Set T flag"},
    {"CLT", OS::kNone, 6, 1, 1, "Clear T flag"},
    {"SEH", OS::kNone, 6, 1, 1, "Set half-carry flag"},
    {"CLH", OS::kNone, 6, 1, 1, "Clear half-carry flag"},
    // group 7
    {"SBRC", OS::kRegBit, 7, 1, 1, "Skip if bit in register cleared"},
    {"SBRS", OS::kRegBit, 7, 1, 1, "Skip if bit in register set"},
    {"SBIC", OS::kIoBit, 7, 1, 1, "Skip if bit in I/O cleared"},
    {"SBIS", OS::kIoBit, 7, 1, 1, "Skip if bit in I/O set"},
    {"BRBS", OS::kSflagRel, 7, 1, 1, "Branch if SREG bit set"},
    {"BRBC", OS::kSflagRel, 7, 1, 1, "Branch if SREG bit cleared"},
    {"SBI", OS::kIoBit, 7, 2, 1, "Set bit in I/O register"},
    {"CBI", OS::kIoBit, 7, 2, 1, "Clear bit in I/O register"},
    {"BST", OS::kRegBit, 7, 1, 1, "Bit store from register to T"},
    {"BLD", OS::kRegBit, 7, 1, 1, "Bit load from T to register"},
    {"BSET", OS::kSflag, 7, 1, 1, "Set SREG bit"},
    {"BCLR", OS::kSflag, 7, 1, 1, "Clear SREG bit"},
    // group 8
    {"LPM", OS::kRdMem, 8, 3, 1, "Load from program memory"},
    {"ELPM", OS::kRdMem, 8, 3, 1, "Extended load from program memory"},
    // residual
    {"NOP", OS::kNone, 0, 1, 1, "No operation"},
    {"IN", OS::kRdIo, 0, 1, 1, "Read I/O register"},
    {"OUT", OS::kRrIo, 0, 1, 1, "Write I/O register"},
    {"PUSH", OS::kRd, 0, 2, 1, "Push register on stack"},
    {"POP", OS::kRd, 0, 2, 1, "Pop register from stack"},
    {"RET", OS::kNone, 0, 4, 1, "Return from subroutine"},
    {"RETI", OS::kNone, 0, 4, 1, "Return from interrupt"},
    {"RCALL", OS::kRelK, 0, 3, 1, "Relative call"},
    {"CALL", OS::kAbsK, 0, 4, 2, "Absolute call"},
    {"ICALL", OS::kNone, 0, 3, 1, "Indirect call via Z"},
    {"IJMP", OS::kNone, 0, 2, 1, "Indirect jump via Z"},
    {"MUL", OS::kRdRr, 0, 2, 1, "Multiply unsigned"},
    {"MULS", OS::kRdRr, 0, 2, 1, "Multiply signed"},
    {"SLEEP", OS::kNone, 0, 1, 1, "Enter sleep mode"},
    {"WDR", OS::kNone, 0, 1, 1, "Watchdog reset"},
    {"BREAK", OS::kNone, 0, 1, 1, "Debugger break"},
    {"CLI", OS::kNone, 0, 1, 1, "Clear interrupt enable"},
}};

}  // namespace

const MnemonicInfo& info(Mnemonic m) {
  const auto idx = static_cast<std::size_t>(m);
  if (idx >= kInfo.size()) throw std::invalid_argument("info: bad mnemonic");
  return kInfo[idx];
}

std::string_view name(Mnemonic m) { return info(m).name; }

std::optional<Mnemonic> mnemonic_from_name(std::string_view text) {
  std::string upper(text);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  for (std::size_t i = 0; i < kInfo.size(); ++i) {
    if (kInfo[i].name == upper) return static_cast<Mnemonic>(i);
  }
  return std::nullopt;
}

namespace {

/// prefix followed by the decimal `value`, built with append: the shorter
/// `"r" + std::to_string(r)` inlines a memcpy that GCC 12 flags with a false
/// -Wrestrict (GCC bug 105651), which breaks -Werror Release builds.
std::string prefixed(const char* prefix, long long value) {
  std::string out = prefix;
  out.append(std::to_string(value));
  return out;
}

std::string mem_operand(const Instruction& in) {
  switch (in.mode) {
    case AddrMode::kAbs: return "0x" + [&] {
      std::ostringstream os;
      os << std::hex << in.k16;
      return os.str();
    }();
    case AddrMode::kX: return "X";
    case AddrMode::kXPostInc: return "X+";
    case AddrMode::kXPreDec: return "-X";
    case AddrMode::kY: return "Y";
    case AddrMode::kYPostInc: return "Y+";
    case AddrMode::kYPreDec: return "-Y";
    case AddrMode::kYDisp: return prefixed("Y+", in.q);
    case AddrMode::kZ: return "Z";
    case AddrMode::kZPostInc: return "Z+";
    case AddrMode::kZPreDec: return "-Z";
    case AddrMode::kZDisp: return prefixed("Z+", in.q);
    case AddrMode::kR0: return "";  // implicit-R0 LPM has no operands
    case AddrMode::kNone: break;
  }
  return "?";
}

std::string reg(std::uint8_t r) { return prefixed("r", r); }

}  // namespace

std::string to_string(const Instruction& in) {
  const MnemonicInfo& mi = info(in.mnemonic);
  std::string out{mi.name};
  const auto append = [&out](const std::string& s) {
    out += out.find(' ') == std::string::npos ? " " : ", ";
    out += s;
  };
  switch (mi.signature) {
    case OS::kNone:
      break;
    case OS::kRdRr:
      append(reg(in.rd));
      append(reg(in.rr));
      break;
    case OS::kRdK:
      append(reg(in.rd));
      append(std::to_string(in.k8));
      break;
    case OS::kRd:
      append(reg(in.rd));
      break;
    case OS::kRelK:
      append(prefixed(".", in.rel * 2));  // byte offset, GNU style
      break;
    case OS::kAbsK:
      append("0x" + [&] {
        std::ostringstream os;
        os << std::hex << in.k22 * 2;
        return os.str();
      }());
      break;
    case OS::kRdMem: {
      if (in.mode != AddrMode::kR0) append(reg(in.rd));
      const std::string m = mem_operand(in);
      if (!m.empty()) append(m);
      break;
    }
    case OS::kRrMem:
      append(mem_operand(in));
      append(reg(in.rr));
      break;
    case OS::kRegBit:
      append(reg(in.mnemonic == Mnemonic::kSbrc || in.mnemonic == Mnemonic::kSbrs
                     ? in.rr
                     : in.rd));
      append(std::to_string(in.bit));
      break;
    case OS::kIoBit:
      append(std::to_string(in.io));
      append(std::to_string(in.bit));
      break;
    case OS::kSflagRel:
      append(std::to_string(in.sflag));
      append(prefixed(".", in.rel * 2));
      break;
    case OS::kSflag:
      append(std::to_string(in.sflag));
      break;
    case OS::kRdIo:
      append(reg(in.rd));
      append(std::to_string(in.io));
      break;
    case OS::kRrIo:
      append(std::to_string(in.io));
      append(reg(in.rr));
      break;
  }
  return out;
}

bool is_two_word(const Instruction& in) { return info(in.mnemonic).words == 2; }

bool is_flag_shorthand(Mnemonic m, std::uint8_t* s, bool* set) {
  std::uint8_t flag = 0;
  bool polarity = true;
  switch (m) {
    case Mnemonic::kSec: flag = kFlagC; polarity = true; break;
    case Mnemonic::kClc: flag = kFlagC; polarity = false; break;
    case Mnemonic::kSen: flag = kFlagN; polarity = true; break;
    case Mnemonic::kCln: flag = kFlagN; polarity = false; break;
    case Mnemonic::kSez: flag = kFlagZ; polarity = true; break;
    case Mnemonic::kClz: flag = kFlagZ; polarity = false; break;
    case Mnemonic::kSei: flag = kFlagI; polarity = true; break;
    case Mnemonic::kCli: flag = kFlagI; polarity = false; break;
    case Mnemonic::kSes: flag = kFlagS; polarity = true; break;
    case Mnemonic::kCls: flag = kFlagS; polarity = false; break;
    case Mnemonic::kSev: flag = kFlagV; polarity = true; break;
    case Mnemonic::kClv: flag = kFlagV; polarity = false; break;
    case Mnemonic::kSet: flag = kFlagT; polarity = true; break;
    case Mnemonic::kClt: flag = kFlagT; polarity = false; break;
    case Mnemonic::kSeh: flag = kFlagH; polarity = true; break;
    case Mnemonic::kClh: flag = kFlagH; polarity = false; break;
    default: return false;
  }
  if (s != nullptr) *s = flag;
  if (set != nullptr) *set = polarity;
  return true;
}

bool is_branch_shorthand(Mnemonic m, std::uint8_t* s, bool* on_set) {
  std::uint8_t flag = 0;
  bool polarity = true;
  switch (m) {
    case Mnemonic::kBreq: flag = kFlagZ; polarity = true; break;
    case Mnemonic::kBrne: flag = kFlagZ; polarity = false; break;
    case Mnemonic::kBrcs: flag = kFlagC; polarity = true; break;
    case Mnemonic::kBrcc: flag = kFlagC; polarity = false; break;
    case Mnemonic::kBrlo: flag = kFlagC; polarity = true; break;
    case Mnemonic::kBrsh: flag = kFlagC; polarity = false; break;
    case Mnemonic::kBrmi: flag = kFlagN; polarity = true; break;
    case Mnemonic::kBrpl: flag = kFlagN; polarity = false; break;
    case Mnemonic::kBrlt: flag = kFlagS; polarity = true; break;
    case Mnemonic::kBrge: flag = kFlagS; polarity = false; break;
    case Mnemonic::kBrhs: flag = kFlagH; polarity = true; break;
    case Mnemonic::kBrhc: flag = kFlagH; polarity = false; break;
    case Mnemonic::kBrts: flag = kFlagT; polarity = true; break;
    case Mnemonic::kBrtc: flag = kFlagT; polarity = false; break;
    case Mnemonic::kBrvs: flag = kFlagV; polarity = true; break;
    case Mnemonic::kBrvc: flag = kFlagV; polarity = false; break;
    case Mnemonic::kBrie: flag = kFlagI; polarity = true; break;
    case Mnemonic::kBrid: flag = kFlagI; polarity = false; break;
    default: return false;
  }
  if (s != nullptr) *s = flag;
  if (on_set != nullptr) *on_set = polarity;
  return true;
}

}  // namespace sidis::avr
