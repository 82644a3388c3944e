// A BlockDevice that forwards to another one and wraps each call in a benchmark span, so the
// file system's own time (its call span minus these child spans) and the device's synchronous
// Read/Write cost are measured from outside the program. With no SpanLog attached it only
// forwards. It also counts the sectors written through it: the file system's write traffic.
#ifndef PERFBENCH_SRC_TIMED_DEVICE_H_
#define PERFBENCH_SRC_TIMED_DEVICE_H_

#include "perfbench/src/spans.h"
#include "src/simdisk/block_device.h"

namespace perfbench {

class TimedDevice : public vlog::simdisk::BlockDevice {
 public:
  explicit TimedDevice(vlog::simdisk::BlockDevice* inner) : inner_(inner) {}

  void set_spans(SpanLog* spans) { spans_ = spans; }
  uint64_t sectors_written() const { return sectors_written_; }

  vlog::common::Status Read(vlog::simdisk::Lba lba, std::span<std::byte> out) override {
    SpanScope s(spans_, SpanName::kVldSyncRead, lba);
    return inner_->Read(lba, out);
  }
  vlog::common::Status Write(vlog::simdisk::Lba lba, std::span<const std::byte> in) override {
    SpanScope s(spans_, SpanName::kVldSyncWrite, lba);
    sectors_written_ += in.size() / inner_->SectorBytes();
    return inner_->Write(lba, in);
  }
  vlog::common::Status Flush() override {
    SpanScope s(spans_, SpanName::kVldSyncFlush);
    return inner_->Flush();
  }
  uint64_t SectorCount() const override { return inner_->SectorCount(); }
  uint32_t SectorBytes() const override { return inner_->SectorBytes(); }

 private:
  vlog::simdisk::BlockDevice* inner_;
  SpanLog* spans_ = nullptr;
  uint64_t sectors_written_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_DEVICE_H_
