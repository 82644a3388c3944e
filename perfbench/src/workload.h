// The interface between the runner (main.cc) and the four workloads.
//
// A Workload generates its inputs once per run from the seed (untimed: arrival generation is
// benchmark cost, not program cost) and then builds a fresh stack for every pass. A pass is
// Setup (timed as setup_s), Measure (timed as the measured phase) and Finish (untimed:
// verification reads and counter collection). Every pass of one run sees the same inputs, so
// every deterministic field of PassResult must come out identical; main.cc checks that.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/histogram.h"

namespace perfbench {

namespace common = vlog::common;
namespace obs = vlog::obs;

// kSpans records benchmark spans around every layer call; kBreakdown attaches the simulator's
// own obs::TraceRecorder to split simulated time per component (it never moves the clock).
enum class PassMode { kPlain, kSpans, kBreakdown };

struct PassResult {
  // --- Wall clock: varies from run to run ---
  double setup_s = 0;
  double measure_s = 0;
  std::map<std::string, double> wall;  // Setup sub-phases (simdisk.construct_s, ...).

  // --- Deterministic for a given seed ---
  uint64_t ops = 0;        // Completed requests, fs calls or crash points in the measured phase.
  uint64_t attempted = 0;  // Operations whose outcome was checked (ops + verification reads).
  uint64_t failed = 0;     // Failed calls, wrong payloads and crash invariant violations.
  obs::LatencyHistogram sim_write;  // Simulated ns per write or mutating sync fs call.
  obs::LatencyHistogram sim_read;   // Simulated ns per read.
  uint64_t sim_ops = 0;             // Requests that sim_elapsed covers (sim_iops).
  common::Duration sim_elapsed = 0;
  uint64_t user_sectors = 0;    // Sectors the host wrote.
  uint64_t device_sectors = 0;  // Sectors the disk wrote meanwhile (write_amp numerator).
  std::map<std::string, double> layer;  // Per-layer counts and ratios.
  // Simulated time per request by component; filled only by kBreakdown passes.
  std::map<std::string, double> breakdown;
  std::vector<std::string> errors;      // The first few failures, for the report.

  // Counts a failure; keeps its description when it is among the first few.
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) {
      errors.push_back(what);
    }
  }
  void Check(const vlog::common::Status& status, const char* what) {
    if (!status.ok()) {
      Fail(std::string(what) + ": " + status.ToString());
    }
  }
};

class Pass {
 public:
  virtual ~Pass() = default;
  // Builds the stack (disk construction, format, prepopulation; crash-sweep also records).
  virtual void Setup(PassResult& r) = 0;
  // The measured phase. `spans` is null unless the pass runs in kSpans mode.
  virtual void Measure(PassResult& r, SpanLog* spans) = 0;
  // Untimed: verification reads and per-layer counters.
  virtual void Finish(PassResult& r) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::unique_ptr<Pass> NewPass(PassMode mode) const = 0;
};

std::unique_ptr<Workload> MakeGovernedHot(uint64_t seed);
std::unique_ptr<Workload> MakeMixedFullDisk(uint64_t seed);
std::unique_ptr<Workload> MakeSmallFileUfs(uint64_t seed);
std::unique_ptr<Workload> MakeCrashSweep(uint64_t seed);

// --- Deterministic payloads: the model of a block is its (key, version) pair ---

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t PayloadKey(uint64_t id, uint64_t version) {
  return Mix64(id * 0x100000001ULL ^ version);
}

// Fills `out` with the byte stream of `key`: consecutive 64-bit words key, key+c, key+2c, ...
inline void FillPayload(std::span<std::byte> out, uint64_t key) {
  uint64_t w = key;
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8, w += 0x9e3779b97f4a7c15ULL) {
    std::memcpy(out.data() + i, &w, 8);
  }
  if (i < out.size()) {
    std::memcpy(out.data() + i, &w, out.size() - i);
  }
}

inline bool PayloadMatches(std::span<const std::byte> in, uint64_t key) {
  uint64_t w = key;
  size_t i = 0;
  for (; i + 8 <= in.size(); i += 8, w += 0x9e3779b97f4a7c15ULL) {
    if (std::memcmp(in.data() + i, &w, 8) != 0) {
      return false;
    }
  }
  return i == in.size() || std::memcmp(in.data() + i, &w, in.size() - i) == 0;
}

// Maps a uniform 32-bit draw onto [0, n) without division.
inline uint32_t Scale(uint32_t draw, uint32_t n) {
  return static_cast<uint32_t>((static_cast<uint64_t>(draw) * n) >> 32);
}

// A seeded permutation of [0, n): the order verification reads visit blocks in, so they are
// not served by the track read-ahead of a sequential scan.
inline std::vector<uint32_t> VerifyOrder(uint32_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  uint64_t x = Mix64(seed ^ n);
  for (uint32_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (uint32_t i = n; i > 1; --i) {
    x = Mix64(x);
    std::swap(order[i - 1], order[Scale(static_cast<uint32_t>(x >> 32), i)]);
  }
  return order;
}

inline double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// 64-bit FNV-1a, for digests of deterministic output.
inline uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
