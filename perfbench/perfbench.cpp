// Repository benchmark program.
//
//   perfbench --workload <disasm112|decode112|fleet-open> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a human-readable account of the run and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ledger.  Exits non-zero on
// any correctness violation, and refuses to run at all from a build that is
// not optimised.  See README.md next to this file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef SIDIS_PERFBENCH_BUILD_TYPE
#define SIDIS_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIDIS_PERFBENCH_COMPILER
#define SIDIS_PERFBENCH_COMPILER "unknown"
#endif

namespace {

constexpr bool kOptimised =
#if defined(NDEBUG) && defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <disasm112|decode112|fleet-open> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::atoi(value) != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || !(opt.seconds > 0.0)) return usage();

  const std::string build_type = SIDIS_PERFBENCH_BUILD_TYPE;
  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("perfbench: build %s, compiler %s, nproc %u\n", build_type.c_str(),
              SIDIS_PERFBENCH_COMPILER, std::thread::hardware_concurrency());
  std::fflush(stdout);
  if (build_type != "Release" || !kOptimised) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }

  Report report;
  try {
    if (opt.workload == "disasm112") {
      run_disasm112(opt, report);
    } else if (opt.workload == "decode112") {
      run_decode112(opt, report);
    } else if (opt.workload == "fleet-open") {
      run_fleet_open(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
