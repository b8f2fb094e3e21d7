// ByteBuffer: growable byte container with little-endian scalar packing,
// shared by the bitstream writer/reader, ROM image and PCI payloads.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace aad {

using Byte = std::uint8_t;
using Bytes = std::vector<Byte>;
using ByteSpan = std::span<const Byte>;

/// Little-endian loads from raw bytes, assembled byte by byte so the result
/// never depends on host byte order (compilers fuse them into one load).
/// The caller guarantees the bytes are there.
constexpr std::uint16_t load_le16(const Byte* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
constexpr std::uint32_t load_le32(const Byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
constexpr std::uint64_t load_le64(const Byte* p) noexcept {
  return static_cast<std::uint64_t>(load_le32(p)) |
         (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

/// Append-only little-endian serializer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : data_(std::move(initial)) {}

  void u8(std::uint8_t v) { data_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(ByteSpan span) { data_.insert(data_.end(), span.begin(), span.end()); }
  /// Fixed-width string field, zero padded / truncated to `width`.
  void fixed_string(const std::string& s, std::size_t width);

  std::size_t size() const noexcept { return data_.size(); }
  const Bytes& data() const noexcept { return data_; }
  Bytes take() && { return std::move(data_); }

  /// Patch a previously written u32 at `offset` (e.g. length prologues).
  void patch_u32(std::size_t offset, std::uint32_t v);

 private:
  Bytes data_;
};

/// Cursor-based little-endian deserializer over a borrowed span.
/// Throws kCorruptData when a read runs past the end.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes bytes(std::size_t count);
  std::string fixed_string(std::size_t width);

  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool at_end() const noexcept { return offset_ == data_.size(); }
  void skip(std::size_t count);

 private:
  void require(std::size_t count) const;

  ByteSpan data_;
  std::size_t offset_ = 0;
};

}  // namespace aad
