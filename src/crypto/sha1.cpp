#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace wsp {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

inline void store_be32(std::uint32_t v, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// One of the 80 rounds, resolved at compile time.  Instead of shifting
// a..e down every round, the roles rotate through v[5]: round I reads a at
// v[(5 - I % 5) % 5], b one slot later, and so on, so after 80 rounds
// (a multiple of 5) a is back in v[0].  w is the 16-word rolling message
// schedule: w[I % 16] is overwritten with W[I] once I >= 16.
//
// always_inline: all 80 rounds must land in one body so that v and w live
// in registers.  GCC 12's inliner otherwise stops partway through the
// sequence and the compression function runs at about half the speed.
template <int I>
[[gnu::always_inline]] inline void round(std::uint32_t (&v)[5], std::uint32_t (&w)[16],
                                         const std::uint8_t* block) {
  std::uint32_t& a = v[(5 - I % 5) % 5];
  std::uint32_t& b = v[(6 - I % 5) % 5];
  std::uint32_t& c = v[(7 - I % 5) % 5];
  std::uint32_t& d = v[(8 - I % 5) % 5];
  std::uint32_t& e = v[(9 - I % 5) % 5];
  std::uint32_t x;
  if constexpr (I < 16) {
    x = w[I] = load_be32(block + 4 * I);
  } else {
    x = w[I % 16] = rotl(w[(I + 13) % 16] ^ w[(I + 8) % 16] ^ w[(I + 2) % 16] ^ w[I % 16], 1);
  }
  if constexpr (I < 20) {
    e += (d ^ (b & (c ^ d))) + 0x5A827999;  // Ch(b, c, d)
  } else if constexpr (I < 40) {
    e += (b ^ c ^ d) + 0x6ED9EBA1;
  } else if constexpr (I < 60) {
    e += ((b & c) | (d & (b | c))) + 0x8F1BBCDC;  // Maj(b, c, d)
  } else {
    e += (b ^ c ^ d) + 0xCA62C1D6;
  }
  e += rotl(a, 5) + x;
  b = rotl(b, 30);
}

template <std::size_t... I>
[[gnu::always_inline]] inline void rounds(std::uint32_t (&v)[5], std::uint32_t (&w)[16],
                                          const std::uint8_t* block, std::index_sequence<I...>) {
  (round<static_cast<int>(I)>(v, w, block), ...);
}

}  // namespace

Sha1::Sha1() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
}

void Sha1::compress(const std::uint8_t* blocks, std::size_t n) {
  for (; n > 0; --n, blocks += kBlockSize) {
    std::uint32_t v[5] = {h_[0], h_[1], h_[2], h_[3], h_[4]};
    std::uint32_t w[16];
    rounds(v, w, blocks, std::make_index_sequence<80>{});
    for (int i = 0; i < 5; ++i) h_[i] += v[i];
  }
}

void Sha1::update(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  total_ += n;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(n, kBlockSize - buf_len_);
    std::memcpy(buf_ + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    n -= take;
    if (buf_len_ < kBlockSize) return;
    compress(buf_, 1);
    buf_len_ = 0;
  }
  const std::size_t whole = n / kBlockSize;
  compress(data, whole);
  data += whole * kBlockSize;
  n -= whole * kBlockSize;
  if (n > 0) std::memcpy(buf_, data, n);
  buf_len_ = n;
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::digest() {
  const std::uint64_t bit_len = total_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kBlockSize - 8) {
    std::memset(buf_ + buf_len_, 0, kBlockSize - buf_len_);
    compress(buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, kBlockSize - 8 - buf_len_);
  store_be32(static_cast<std::uint32_t>(bit_len >> 32), buf_ + 56);
  store_be32(static_cast<std::uint32_t>(bit_len), buf_ + 60);
  compress(buf_, 1);
  std::array<std::uint8_t, kDigestSize> out{};
  for (std::size_t i = 0; i < 5; ++i) store_be32(h_[i], out.data() + 4 * i);
  return out;
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::hash(const std::uint8_t* data,
                                                       std::size_t n) {
  Sha1 ctx;
  ctx.update(data, n);
  return ctx.digest();
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::hash(
    const std::vector<std::uint8_t>& data) {
  return hash(data.data(), data.size());
}

}  // namespace wsp
