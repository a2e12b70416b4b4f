#include "crypto/md5.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace wsp {

namespace {

constexpr std::uint32_t kK[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr int kShift[16] = {7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21};

inline std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void store_le32(std::uint32_t v, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// One of the 64 steps, resolved at compile time.  The roles rotate through
// v[4] instead of shifting a..d every step: step I reads a at
// v[(4 - I % 4) % 4], b one slot later, and so on, so after 64 steps a is
// back in v[0].  always_inline for the same reason as SHA-1's rounds: the
// 64 steps must share one body to keep v and m in registers.
template <int I>
[[gnu::always_inline]] inline void step(std::uint32_t (&v)[4], const std::uint32_t (&m)[16]) {
  std::uint32_t& a = v[(4 - I % 4) % 4];
  const std::uint32_t b = v[(5 - I % 4) % 4];
  const std::uint32_t c = v[(6 - I % 4) % 4];
  const std::uint32_t d = v[(7 - I % 4) % 4];
  std::uint32_t f;
  int g;
  if constexpr (I < 16) {
    f = d ^ (b & (c ^ d));
    g = I;
  } else if constexpr (I < 32) {
    f = c ^ (d & (b ^ c));
    g = (5 * I + 1) % 16;
  } else if constexpr (I < 48) {
    f = b ^ c ^ d;
    g = (3 * I + 5) % 16;
  } else {
    f = c ^ (b | ~d);
    g = (7 * I) % 16;
  }
  a = b + rotl(a + f + kK[I] + m[g], kShift[(I / 16) * 4 + I % 4]);
}

template <std::size_t... I>
[[gnu::always_inline]] inline void steps(std::uint32_t (&v)[4], const std::uint32_t (&m)[16],
                                         std::index_sequence<I...>) {
  (step<static_cast<int>(I)>(v, m), ...);
}

}  // namespace

Md5::Md5() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
}

void Md5::compress(const std::uint8_t* blocks, std::size_t n) {
  for (; n > 0; --n, blocks += kBlockSize) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) m[i] = load_le32(blocks + 4 * i);
    std::uint32_t v[4] = {h_[0], h_[1], h_[2], h_[3]};
    steps(v, m, std::make_index_sequence<64>{});
    for (int i = 0; i < 4; ++i) h_[i] += v[i];
  }
}

void Md5::update(const std::uint8_t* data, std::size_t n) {
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

std::array<std::uint8_t, Md5::kDigestSize> Md5::digest() {
  const std::uint64_t bit_len = total_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kBlockSize - 8) {
    std::memset(buf_ + buf_len_, 0, kBlockSize - buf_len_);
    compress(buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, kBlockSize - 8 - buf_len_);
  store_le32(static_cast<std::uint32_t>(bit_len), buf_ + 56);
  store_le32(static_cast<std::uint32_t>(bit_len >> 32), buf_ + 60);
  compress(buf_, 1);
  std::array<std::uint8_t, kDigestSize> out{};
  for (std::size_t i = 0; i < 4; ++i) store_le32(h_[i], out.data() + 4 * i);
  return out;
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::hash(const std::uint8_t* data,
                                                     std::size_t n) {
  Md5 ctx;
  ctx.update(data, n);
  return ctx.digest();
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::hash(
    const std::vector<std::uint8_t>& data) {
  return hash(data.data(), data.size());
}

}  // namespace wsp
