// Crash-point enumeration over a recorded write trace.
//
// The crash model (see DESIGN.md, "Crash model and recovery guarantees"): power can drop
// between any two media writes (a *clean stop*), in the middle of a multi-sector write so that
// only some of its sectors persist (a *torn tail* — prefix, suffix, or an arbitrary subset,
// since the drive may reorder sectors within one command), or during the last sector so that
// it persists damaged (a *corrupted tail*, which must be caught by the CRC on every signed
// structure). On a write-through device writes are never reordered across command boundaries:
// the SimDisk commits each write before acknowledging it.
//
// With a volatile write-back cache the model widens: acknowledged writes between two
// durability barriers (Flush completions) may persist as any subset, in any order — the drive
// destages at its own convenience. A *reorder* crash point captures one such admissible state:
// everything before the last completed barrier persists exactly, plus an ordered subset of the
// in-window acknowledged writes on top. Small windows are enumerated exhaustively; larger ones
// are sampled with a seeded RNG so any failure is replayable from its seed.
#ifndef SRC_CRASHSIM_CRASH_POINT_H_
#define SRC_CRASHSIM_CRASH_POINT_H_

#include <cstdint>
#include <vector>

#include "src/crashsim/write_trace.h"

namespace vlog::crashsim {

// The torn and corrupt-tail kinds are SimDisk write faults: the sweep materializes them with
// SimDisk::PokeFaulted in the matching WriteFaultMode.
enum class CrashKind : uint8_t {
  kClean,        // Power drops between writes; the trace prefix persists exactly.
  kTornPrefix,   // The final write persists only its first keep_sectors sectors.
  kTornSuffix,   // The final write persists only its last keep_sectors sectors.
  kTornRandom,   // A seeded pseudo-random subset of the final write's sectors persists.
  kCorruptTail,  // The final write persists fully but its last sector takes seeded bit flips.
  kReorder,      // Write-back cache lost/reordered an in-window subset of acknowledged writes:
                 // records [0, writes_applied) persist, then `extra` applies in its order.
};

const char* CrashKindName(CrashKind kind);

struct CrashPoint {
  uint64_t writes_applied = 0;  // Trace records fully persisted before the cut.
  CrashKind kind = CrashKind::kClean;  // Fate of record[writes_applied] (unused for kClean).
  uint32_t keep_sectors = 0;           // kTornPrefix / kTornSuffix only.
  uint64_t seed = 1;                   // kTornRandom / kCorruptTail / sampled kReorder.
  // kReorder only: absolute trace indices applied, in this order, on top of the durable
  // prefix; all lie in [writes_applied, epoch_end).
  std::vector<uint64_t> extra{};
  // kReorder only: the barrier position ending the epoch. Ops acknowledged at or before it may
  // be partially persisted by this point; ops beyond it have no records in `extra`.
  uint64_t epoch_end = 0;
  // Stable index within the sweep's merged point list, for failure messages ("point #N"):
  // re-running with the same seed reproduces the same list, so the pair (seed, ordinal)
  // identifies a crash state exactly.
  uint64_t ordinal = 0;
};

struct EnumerateOptions {
  uint64_t clean_stride = 1;    // Clean stop after every Nth write (the final state is always
                                // included regardless of stride).
  uint64_t torn_stride = 1;     // Torn variants for every Nth multi-sector write (0 = none).
  uint64_t corrupt_stride = 4;  // Corrupt-tail variant for every Nth write (0 = none).
  uint64_t seed = 1;            // Base seed for the randomized variants.
};

// How to enumerate reorder points over a write-back trace's barrier-delimited epochs.
struct ReorderOptions {
  // Epochs with at most this many volatile writes get every ordered subset (n=4 -> 65 states);
  // larger epochs get `samples_per_epoch` seeded random (subset, order) draws instead.
  uint64_t exhaustive_window = 4;
  uint64_t samples_per_epoch = 12;
  uint64_t seed = 1;
};

// All crash points for `trace`, ordered by writes_applied so a sweep can maintain a rolling
// reconstructed image.
std::vector<CrashPoint> EnumerateCrashPoints(const WriteTrace& trace, uint32_t sector_bytes,
                                             const EnumerateOptions& options);

// Reorder points for a write-back trace: one per admissible (subset, order) of each
// barrier-delimited epoch's volatile writes (durable in-window writes — FUA — always apply
// first, in trace order). Returns an empty vector when the trace was not recorded write-back.
// Ordered by writes_applied, so it merges into the sweep's rolling pass.
std::vector<CrashPoint> EnumerateReorderPoints(const WriteTrace& trace,
                                               const ReorderOptions& options);

}  // namespace vlog::crashsim

#endif  // SRC_CRASHSIM_CRASH_POINT_H_
