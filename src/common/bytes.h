// Little-endian byte (de)serialization helpers for on-disk record formats.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace vlog::common {

// Writes `value` little-endian at `out[offset..offset+sizeof(T))`. The caller guarantees the
// span is large enough; these are building blocks for fixed-layout sectors. On a little-endian
// host the field is one memcpy (a record codec costs about a copy); elsewhere a byte loop
// produces the same bytes.
template <typename T>
void StoreLe(std::span<std::byte> out, size_t offset, T value) {
  static_assert(std::is_integral_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data() + offset, &value, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out[offset + i] = static_cast<std::byte>(static_cast<uint64_t>(value) >> (8 * i));
    }
  }
}

template <typename T>
T LoadLe(std::span<const std::byte> in, size_t offset) {
  static_assert(std::is_integral_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    T value = 0;
    std::memcpy(&value, in.data() + offset, sizeof(T));
    return value;
  } else {
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(in[offset + i])) << (8 * i);
    }
    return static_cast<T>(v);
  }
}

// Array forms: `values` stored (loaded) as consecutive little-endian fields starting at
// `offset`. One memcpy for the whole run on a little-endian host; an empty span may have a
// null data(), which memcpy must not see.
template <typename T>
void StoreLeArray(std::span<std::byte> out, size_t offset, std::span<const T> values) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) {
      std::memcpy(out.data() + offset, values.data(), values.size_bytes());
    }
  } else {
    for (size_t i = 0; i < values.size(); ++i) {
      StoreLe<T>(out, offset + i * sizeof(T), values[i]);
    }
  }
}

template <typename T>
void LoadLeArray(std::span<const std::byte> in, size_t offset, std::span<T> values) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) {
      std::memcpy(values.data(), in.data() + offset, values.size_bytes());
    }
  } else {
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = LoadLe<T>(in, offset + i * sizeof(T));
    }
  }
}

}  // namespace vlog::common

#endif  // SRC_COMMON_BYTES_H_
