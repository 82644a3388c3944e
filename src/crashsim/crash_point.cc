#include "src/crashsim/crash_point.h"

#include <algorithm>

#include "src/common/rng.h"

namespace vlog::crashsim {
namespace {

// Distinct, deterministic seed per (base seed, write index).
uint64_t VariantSeed(uint64_t base, uint64_t index) { return base * 1000003ULL + index + 1; }

}  // namespace

const char* CrashKindName(CrashKind kind) {
  switch (kind) {
    case CrashKind::kClean:
      return "clean";
    case CrashKind::kTornPrefix:
      return "torn-prefix";
    case CrashKind::kTornSuffix:
      return "torn-suffix";
    case CrashKind::kTornRandom:
      return "torn-random";
    case CrashKind::kCorruptTail:
      return "corrupt-tail";
    case CrashKind::kReorder:
      return "reorder";
  }
  return "?";
}

std::vector<CrashPoint> EnumerateCrashPoints(const WriteTrace& trace, uint32_t sector_bytes,
                                             const EnumerateOptions& options) {
  std::vector<CrashPoint> points;
  for (uint64_t n = 0; n <= trace.size(); ++n) {
    if (n == trace.size() || (options.clean_stride > 0 && n % options.clean_stride == 0)) {
      points.push_back(CrashPoint{n, CrashKind::kClean});
    }
    if (n == trace.size()) {
      break;
    }
    const uint64_t sectors = trace[n].Sectors(sector_bytes);
    if (sectors > 1 && options.torn_stride > 0 && n % options.torn_stride == 0) {
      points.push_back(CrashPoint{n, CrashKind::kTornPrefix, 1});
      if (sectors > 2) {
        points.push_back(
            CrashPoint{n, CrashKind::kTornPrefix, static_cast<uint32_t>(sectors - 1)});
      }
      points.push_back(CrashPoint{n, CrashKind::kTornSuffix, 1});
      points.push_back(
          CrashPoint{n, CrashKind::kTornRandom, 0, VariantSeed(options.seed, n)});
    }
    if (options.corrupt_stride > 0 && n % options.corrupt_stride == 0) {
      points.push_back(
          CrashPoint{n, CrashKind::kCorruptTail, 0, VariantSeed(options.seed, n)});
    }
  }
  return points;
}

std::vector<CrashPoint> EnumerateReorderPoints(const WriteTrace& trace,
                                               const ReorderOptions& options) {
  std::vector<CrashPoint> points;
  if (!trace.write_back()) {
    return points;
  }
  // Epoch boundaries: recording start, every barrier, end of trace.
  std::vector<uint64_t> bounds;
  bounds.push_back(0);
  for (const uint64_t b : trace.barriers()) {
    if (b != bounds.back()) {
      bounds.push_back(b);
    }
  }
  if (trace.size() != bounds.back()) {
    bounds.push_back(trace.size());
  }

  uint64_t point_counter = 0;
  for (size_t e = 0; e + 1 < bounds.size(); ++e) {
    const uint64_t begin = bounds[e];
    const uint64_t end = bounds[e + 1];
    // Durable in-window writes (FUA) persist regardless; volatile ones form the reorder window.
    std::vector<uint64_t> durables;
    std::vector<uint64_t> window;
    for (uint64_t i = begin; i < end; ++i) {
      (trace[i].durable ? durables : window).push_back(i);
    }

    auto emit = [&](std::vector<uint64_t> order, uint64_t seed) {
      CrashPoint p;
      p.writes_applied = begin;
      p.kind = CrashKind::kReorder;
      p.seed = seed;
      p.epoch_end = end;
      p.extra = durables;
      p.extra.insert(p.extra.end(), order.begin(), order.end());
      points.push_back(std::move(p));
      ++point_counter;
    };

    const uint64_t n = window.size();
    if (n <= options.exhaustive_window) {
      // Every ordered subset: choose members by bitmask, then permute each choice.
      for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
        std::vector<uint64_t> subset;
        for (uint64_t i = 0; i < n; ++i) {
          if (mask & (1ULL << i)) {
            subset.push_back(window[i]);
          }
        }
        std::sort(subset.begin(), subset.end());
        do {
          emit(subset, VariantSeed(options.seed, point_counter));
        } while (std::next_permutation(subset.begin(), subset.end()));
      }
    } else {
      for (uint64_t s = 0; s < options.samples_per_epoch; ++s) {
        const uint64_t seed = VariantSeed(options.seed, point_counter);
        common::Rng rng(seed);
        const uint64_t k = rng.Below(n + 1);
        // Partial Fisher-Yates: the first k entries become a uniform k-permutation.
        std::vector<uint64_t> pool = window;
        for (uint64_t i = 0; i < k; ++i) {
          std::swap(pool[i], pool[i + rng.Below(n - i)]);
        }
        pool.resize(k);
        emit(std::move(pool), seed);
      }
    }
  }
  return points;
}

}  // namespace vlog::crashsim
