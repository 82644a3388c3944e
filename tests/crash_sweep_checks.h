// Checks shared by the crash-sweep tests (crashsim_test, array_crashsim_test): the Summary()
// golden and worker-count invisibility.
//
// tests/golden/crash_sweep_summaries.txt pins the Summary() text of every sweep the two suites
// run at seed 1 without a --point replay, one line per sweep: "<key>: <Summary()>", with the
// summary's own line breaks written as a literal "\n". Every checked sweep prints its line
// prefixed by "[ golden ] ", so after an intentional change to what a sweep reports,
// regenerate the file with:
//   { build/tests/crashsim_test; build/tests/array_crashsim_test; } |
//       sed -n 's/^\[ golden \] //p' > tests/golden/crash_sweep_summaries.txt
#ifndef TESTS_CRASH_SWEEP_CHECKS_H_
#define TESTS_CRASH_SWEEP_CHECKS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "src/crashsim/harness.h"

namespace vlog::crashsim {

// Defined by each test binary from its --seed=N --point=K flags.
extern uint64_t g_sweep_seed;
extern int64_t g_sweep_point;

// Compares `report` with the golden line stored under `key`. Only seed-1 full sweeps are
// pinned; a --seed or --point run checks nothing here.
inline void ExpectGoldenSummary(const std::string& key, const CrashSweepReport& report) {
  if (g_sweep_seed != 1 || g_sweep_point >= 0) {
    return;
  }
  std::string line = key + ": ";
  for (const char c : report.Summary()) {
    line += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  std::cout << "[ golden ] " << line << "\n";
  static const std::map<std::string, std::string> golden = [] {
    std::map<std::string, std::string> lines;
    std::ifstream in(VLOG_CRASH_SWEEP_GOLDEN);
    for (std::string l; std::getline(in, l);) {
      lines.emplace(l.substr(0, l.find(": ")), l);
    }
    return lines;
  }();
  const auto it = golden.find(key);
  ASSERT_NE(it, golden.end()) << "no line for '" << key << "' in " << VLOG_CRASH_SWEEP_GOLDEN;
  EXPECT_EQ(it->second, line) << "Summary() of sweep '" << key << "' differs from its golden";
}

// Sharding a sweep across worker threads must be invisible in the report: same counters,
// violation details, ordinals, per-point recovery times and Summary() text.
inline void ExpectIdenticalReports(const CrashSweepReport& serial,
                                   const CrashSweepReport& sharded, uint32_t workers) {
  EXPECT_EQ(serial.points, sharded.points) << "workers=" << workers;
  EXPECT_EQ(serial.clean_points, sharded.clean_points) << "workers=" << workers;
  EXPECT_EQ(serial.torn_points, sharded.torn_points) << "workers=" << workers;
  EXPECT_EQ(serial.corrupt_points, sharded.corrupt_points) << "workers=" << workers;
  EXPECT_EQ(serial.reorder_points, sharded.reorder_points) << "workers=" << workers;
  EXPECT_EQ(serial.nvm_points, sharded.nvm_points) << "workers=" << workers;
  EXPECT_EQ(serial.nvm_torn_points, sharded.nvm_torn_points) << "workers=" << workers;
  EXPECT_EQ(serial.seed, sharded.seed) << "workers=" << workers;
  EXPECT_EQ(serial.violations, sharded.violations) << "workers=" << workers;
  EXPECT_EQ(serial.violation_details, sharded.violation_details) << "workers=" << workers;
  EXPECT_EQ(serial.first_violation_ordinal, sharded.first_violation_ordinal)
      << "workers=" << workers;
  EXPECT_EQ(serial.park_recoveries, sharded.park_recoveries) << "workers=" << workers;
  EXPECT_EQ(serial.scan_recoveries, sharded.scan_recoveries) << "workers=" << workers;
  EXPECT_EQ(serial.checkpoint_recoveries, sharded.checkpoint_recoveries)
      << "workers=" << workers;
  EXPECT_EQ(serial.rolled_back_recoveries, sharded.rolled_back_recoveries)
      << "workers=" << workers;
  EXPECT_EQ(serial.repaired_pieces, sharded.repaired_pieces) << "workers=" << workers;
  ASSERT_EQ(serial.recovery_times.size(), sharded.recovery_times.size())
      << "workers=" << workers;
  for (size_t i = 0; i < serial.recovery_times.size(); ++i) {
    EXPECT_EQ(serial.recovery_times[i], sharded.recovery_times[i])
        << "workers=" << workers << " point " << i;
  }
  EXPECT_EQ(serial.Summary(), sharded.Summary()) << "workers=" << workers;
}

// Sweeps `sim` serially and again at 2 and 8 workers, expecting identical reports. Returns
// the serial report for the caller's own floors.
template <typename Sim>
CrashSweepReport ExpectWorkerCountInvisible(const Sim& sim, CrashSweepOptions options) {
  options.workers = 1;
  const CrashSweepReport serial = sim.Sweep(options);
  for (const uint32_t workers : {2u, 8u}) {
    options.workers = workers;
    ExpectIdenticalReports(serial, sim.Sweep(options), workers);
  }
  return serial;
}

}  // namespace vlog::crashsim

#endif  // TESTS_CRASH_SWEEP_CHECKS_H_
