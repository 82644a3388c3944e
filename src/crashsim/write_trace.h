// Media-write recording for crash-consistency sweeps.
//
// A WriteTrace captures the complete persistence history of one workload run after recording
// started: every successful write (host or internal) in the order the SimDisk committed it.
// Any crash point's disk can then be rebuilt offline by replaying a prefix of the records over
// a fork of the disk as recording started — without re-executing the workload — which is what
// makes sweeping hundreds of crash points cheap.
#ifndef SRC_CRASHSIM_WRITE_TRACE_H_
#define SRC_CRASHSIM_WRITE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/simdisk/geometry.h"

namespace vlog::crashsim {

// One successfully acknowledged write, as observed at the SimDisk. `durable` is false for
// writes acknowledged into a volatile write-back cache — those may be lost or reordered by a
// crash until the next durability barrier.
struct WriteRecord {
  simdisk::Lba lba = 0;  // Member-local LBA (arrays record each member's own address space).
  // Payload bytes, viewing the owning WriteTrace's arena (valid for the trace's lifetime). A
  // span, not a vector: a million-op trace allocates a handful of arena chunks instead of one
  // heap payload per write.
  std::span<const std::byte> data;
  bool durable = true;
  // Which member disk committed the write. 0 for single-disk traces; an array sweep replays
  // each record onto that member's disk. Barrier-delimited epochs still work globally because
  // every member drains its own cache at each commit, so an epoch only ever holds one member's
  // volatile writes.
  uint32_t disk = 0;

  uint64_t Sectors(uint32_t sector_bytes) const { return data.size() / sector_bytes; }
};

class WriteTrace {
 public:
  void Append(simdisk::Lba lba, std::span<const std::byte> data, bool durable = true,
              uint32_t disk = 0) {
    if (records_.empty()) {
      records_.reserve(kInitialRecordCapacity);
    }
    records_.push_back(WriteRecord{lba, ArenaCopy(data), durable, disk});
  }

  // Marks a durability barrier: every record appended so far is on stable media. Recorded at
  // each completed Flush (and capacity-pressure drain). Barrier positions are record counts
  // kept apart from the records themselves, so traces recorded without a write cache are
  // byte-identical to pre-barrier traces.
  void AppendBarrier() {
    if (barriers_.empty() || barriers_.back() != records_.size()) {
      barriers_.push_back(records_.size());
    }
  }
  const std::vector<uint64_t>& barriers() const { return barriers_; }

  // True when the recording device ran a volatile write-back cache, i.e. the reordering crash
  // model applies between barriers.
  void set_write_back(bool write_back) { write_back_ = write_back; }
  bool write_back() const { return write_back_; }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const WriteRecord& operator[](size_t i) const { return records_[i]; }

 private:
  static constexpr size_t kInitialRecordCapacity = 4096;
  static constexpr size_t kArenaChunkBytes = 1 << 20;

  // Copies `data` into the payload arena and returns a view of the stored bytes. Chunks are
  // never reallocated (only new ones appended), so returned spans stay valid for the trace's
  // lifetime; payloads larger than a chunk get a dedicated chunk.
  std::span<const std::byte> ArenaCopy(std::span<const std::byte> data);

  std::vector<WriteRecord> records_;
  std::vector<uint64_t> barriers_;
  std::vector<std::unique_ptr<std::byte[]>> arena_;
  size_t arena_cap_ = 0;   // Capacity of arena_.back().
  size_t arena_used_ = 0;  // Bytes of arena_.back() in use.
  bool write_back_ = false;
};

}  // namespace vlog::crashsim

#endif  // SRC_CRASHSIM_WRITE_TRACE_H_
