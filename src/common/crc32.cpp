#include "common/crc32.h"

namespace aad {
namespace {

// Slicing-by-8 tables, built at compile time from the reflected IEEE
// polynomial.  t[0] is the classic byte table; t[s][i] is the CRC of byte i
// followed by s zero bytes, so eight lookups fold one 64-bit word into the
// running state at once.  Plain arrays: every index is masked to a byte, so
// checked container indexing would only add cost.
struct Tables {
  std::uint32_t t[8][256];
};

constexpr Tables make_tables() noexcept {
  Tables tables{};
  auto& t = tables.t;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
  return tables;
}

constexpr Tables kTables = make_tables();

constexpr std::uint32_t fold_byte(std::uint32_t state, Byte b) noexcept {
  return kTables.t[0][(state ^ b) & 0xFFu] ^ (state >> 8);
}

}  // namespace

void Crc32::update(Byte b) noexcept { state_ = fold_byte(state_, b); }

void Crc32::update(ByteSpan data) noexcept {
  std::uint32_t c = state_;
  const Byte* p = data.data();
  std::size_t n = data.size();
  const auto& t = kTables.t;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = fold_byte(c, *p);
  state_ = c;
}

}  // namespace aad
