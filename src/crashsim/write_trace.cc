#include "src/crashsim/write_trace.h"

#include <algorithm>
#include <cstring>

namespace vlog::crashsim {

std::span<const std::byte> WriteTrace::ArenaCopy(std::span<const std::byte> data) {
  if (data.empty()) {
    return {};
  }
  if (arena_.empty() || arena_cap_ - arena_used_ < data.size()) {
    arena_cap_ = std::max(kArenaChunkBytes, data.size());
    arena_used_ = 0;
    arena_.push_back(std::make_unique<std::byte[]>(arena_cap_));
  }
  std::byte* dst = arena_.back().get() + arena_used_;
  std::memcpy(dst, data.data(), data.size());
  arena_used_ += data.size();
  return {dst, data.size()};
}

}  // namespace vlog::crashsim
