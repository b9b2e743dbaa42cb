// The integrated headline experiment: train the complete three-level
// hierarchical disassembler over ALL 112 instruction classes (plus the
// register levels) and measure the end-to-end successful recognition rate on
// unseen traces -- the paper's 99.03% figure as one run instead of a product
// of per-level estimates.
//
// This is the heaviest bench (roughly 112 x traces captures plus a
// 6216-pair KL selection at level 1); defaults are sized to finish in a few
// minutes.  SIDIS_TRACES_PER_CLASS scales it toward paper fidelity,
// SIDIS_FAST=1 shrinks it to a smoke test, and SIDIS_REGISTERS=0 skips the
// register levels.
#include "bench/common.hpp"

#include "core/hierarchical.hpp"
#include "core/profiler.hpp"

using namespace sidis;

int main() {
  bench::print_header(
      "Full system -- 112-class hierarchical disassembly, end to end");
  std::mt19937_64 rng(static_cast<std::uint64_t>(bench::env_int("SIDIS_SEED", 112)));

  const sim::AcquisitionCampaign campaign(sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0));

  core::ProfilerConfig pc;
  pc.traces_per_class =
      static_cast<std::size_t>(bench::env_int("SIDIS_TRACES_PER_CLASS",
                                              bench::fast_mode() ? 30 : 80));
  pc.traces_per_register = pc.traces_per_class * 3;
  pc.num_programs = 10;
  pc.profile_registers = bench::env_int("SIDIS_REGISTERS", 1) != 0;
  if (pc.profile_registers) {
    // A spread of the register file keeps the default runtime sane;
    // SIDIS_ALL_REGISTERS=1 profiles r0..r31.
    if (bench::env_int("SIDIS_ALL_REGISTERS", 0) == 0) {
      pc.registers = {0, 2, 5, 9, 13, 16, 20, 24, 28, 31};
    }
  }
  if (bench::fast_mode()) {
    // Smoke scale: two classes per group.
    for (int g = 1; g <= 8; ++g) {
      const auto cls = avr::classes_in_group(g);
      pc.classes.push_back(cls.front());
      pc.classes.push_back(cls.back());
    }
    pc.registers = {0, 16};
  }

  std::printf("  profiling %s classes, %zu traces each",
              pc.classes.empty() ? "all 112" : std::to_string(pc.classes.size()).c_str(),
              pc.traces_per_class);
  if (pc.profile_registers) {
    std::printf(", %zu registers x %zu traces",
                pc.registers.empty() ? 32 : pc.registers.size(), pc.traces_per_register);
  }
  std::printf("...\n");
  const core::ProfilingData data = core::profile_device(
      campaign, pc, rng, [](std::size_t done, std::size_t total, const std::string&) {
        if (done % 25 == 0 || done == total) {
          std::printf("    %zu / %zu campaign items\n", done, total);
          std::fflush(stdout);
        }
        return true;
      });

  std::printf("  training the hierarchy...\n");
  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.factory.discriminant.shrinkage = 0.15;
  const auto model = core::HierarchicalDisassembler::train(data, cfg);

  // Unseen-trace evaluation: fresh operands, unseen program files.
  const std::size_t per_class = bench::fast_mode() ? 5 : 10;
  std::size_t group_hits = 0, class_hits = 0, full_hits = 0, reg_checked = 0,
              reg_hits = 0, total = 0;
  for (const auto& [cls, unused] : data.classes) {
    (void)unused;
    for (std::size_t i = 0; i < per_class; ++i) {
      avr::SampleOptions opts;
      // Keep evaluated registers within the profiled subset so the register
      // levels are scored on labels they know.
      if (!pc.registers.empty() && pc.profile_registers) {
        const auto pick = pc.registers[i % pc.registers.size()];
        if (avr::class_allows_rd(cls, pick)) opts.fix_rd = pick;
        if (avr::class_allows_rr(cls, pick)) opts.fix_rr = pick;
      }
      const avr::Instruction target = avr::random_instance(cls, rng, opts);
      const sim::Trace t = campaign.capture_trace(
          target, sim::ProgramContext::make(50 + static_cast<int>(i) % 3), rng);
      const core::Disassembly d = model.classify(t);
      ++total;
      group_hits += d.group == avr::group_of_class(cls) ? 1 : 0;
      if (d.class_idx != cls) continue;
      ++class_hits;
      bool ok = true;
      if (pc.profile_registers) {
        if (avr::class_uses_rd(cls) && d.rd) {
          ++reg_checked;
          if (*d.rd == target.rd) ++reg_hits; else ok = false;
        }
        if (avr::class_uses_rr(cls) && d.rr) {
          ++reg_checked;
          if (*d.rr == target.rr) ++reg_hits; else ok = false;
        }
      }
      full_hits += ok ? 1 : 0;
    }
  }

  const auto pct = [&](std::size_t n) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(total);
  };
  std::printf("\n  unseen traces evaluated: %zu (%zu per class)\n", total, per_class);
  bench::print_row("group level (level 1)", 99.85, pct(group_hits));
  bench::print_row("instruction class (1+2)", 99.53, pct(class_hits));
  if (pc.profile_registers && reg_checked > 0) {
    std::printf("  %-28s paper: %6.2f%%   measured: %6.2f%% (%zu checks)\n",
                "register operands (level 3)", 99.75,
                100.0 * static_cast<double>(reg_hits) / static_cast<double>(reg_checked),
                reg_checked);
    bench::print_row("full instruction + registers", 99.03, pct(full_hits));
  }
  std::printf("\n  shape check: the hierarchy holds its per-level accuracy when run\n"
              "  end-to-end over the whole ISA -- the paper's headline claim.\n");
  return 0;
}
