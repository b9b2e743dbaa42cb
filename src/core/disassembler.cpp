#include "core/disassembler.hpp"

#include <sstream>

namespace sidis::core {

std::vector<Disassembly> disassemble(const HierarchicalDisassembler& model,
                                     const sim::TraceSet& windows) {
  // The batched path gathers each CWT point once per length bucket and
  // vectorizes across windows; results are bit-identical to per-window
  // classify() calls.
  return model.classify_batch(windows);
}

std::string listing(const std::vector<Disassembly>& instructions) {
  std::ostringstream os;
  for (const Disassembly& d : instructions) os << d.text() << '\n';
  return os.str();
}

std::string Tampering::describe() const {
  std::ostringstream os;
  os << "instruction " << index << ": expected '" << avr::to_string(expected)
     << "', observed '" << observed.text() << "'";
  if (class_mismatch) os << " [opcode tampered]";
  if (rd_mismatch) os << " [Rd tampered]";
  if (rr_mismatch) os << " [Rr tampered]";
  return os.str();
}

MalwareDetector::MalwareDetector(avr::Program golden) : golden_(std::move(golden)) {}

std::vector<Tampering> MalwareDetector::check(
    const std::vector<Disassembly>& recovered) const {
  std::vector<Tampering> out;
  const std::size_t n = std::max(golden_.size(), recovered.size());
  for (std::size_t i = 0; i < n; ++i) {
    Tampering t;
    t.index = i;
    t.expected = i < golden_.size() ? golden_[i] : avr::Instruction{};
    if (i < recovered.size()) t.observed = recovered[i];

    if (i >= golden_.size() || i >= recovered.size()) {
      t.class_mismatch = true;
      out.push_back(t);
      continue;
    }
    const Disassembly& d = recovered[i];
    const auto golden_class = avr::class_of(golden_[i]);
    if (!golden_class) {
      // Golden instruction is outside the 112 profiled classes (NOP, RET,
      // MUL...) -- the disassembler cannot label it, so it is not checkable.
      continue;
    }
    t.class_mismatch = *golden_class != d.class_idx;
    if (!t.class_mismatch) {
      if (avr::class_uses_rd(d.class_idx) && d.rd && *d.rd != golden_[i].rd) {
        t.rd_mismatch = true;
      }
      if (avr::class_uses_rr(d.class_idx) && d.rr && *d.rr != golden_[i].rr) {
        t.rr_mismatch = true;
      }
    }
    if (t.class_mismatch || t.rd_mismatch || t.rr_mismatch) out.push_back(t);
  }
  return out;
}

}  // namespace sidis::core
