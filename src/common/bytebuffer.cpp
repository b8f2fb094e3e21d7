#include "common/bytebuffer.h"

#include <algorithm>

namespace aad {

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::fixed_string(const std::string& s, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i)
    u8(i < s.size() ? static_cast<std::uint8_t>(s[i]) : 0u);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  AAD_REQUIRE(offset + 4 <= data_.size(), "patch_u32 out of range");
  for (int i = 0; i < 4; ++i)
    data_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

void ByteReader::require(std::size_t count) const {
  if (count > data_.size() - offset_)
    AAD_FAIL(ErrorCode::kCorruptData, "ByteReader read past end of data");
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[offset_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  const auto v = load_le16(data_.data() + offset_);
  offset_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  const auto v = load_le32(data_.data() + offset_);
  offset_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  const auto v = load_le64(data_.data() + offset_);
  offset_ += 8;
  return v;
}

Bytes ByteReader::bytes(std::size_t count) {
  require(count);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
            data_.begin() + static_cast<std::ptrdiff_t>(offset_ + count));
  offset_ += count;
  return out;
}

std::string ByteReader::fixed_string(std::size_t width) {
  const Bytes raw = bytes(width);
  const auto end = std::find(raw.begin(), raw.end(), Byte{0});
  return std::string(raw.begin(), end);
}

void ByteReader::skip(std::size_t count) {
  require(count);
  offset_ += count;
}

}  // namespace aad
