// Test-only reference hashes: SHA-1 (FIPS-180) and MD5 (RFC 1321) written
// straight from the specifications — an 80-word expanded schedule and a
// round loop that branches on the round number, padding fed one byte at a
// time — plus HMAC (RFC 2104) as the literal formula over concatenated
// buffers.  Slow and obvious on purpose: the library's unrolled
// compression functions and keyed HMAC midstates are checked against these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsp::ref {

using Bytes = std::vector<std::uint8_t>;

inline std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

/// Appends the Merkle-Damgard padding: 0x80, zeros to 56 mod 64, then the
/// 64-bit bit length in the given byte order.
inline Bytes md_pad(Bytes m, bool big_endian) {
  const std::uint64_t bits = static_cast<std::uint64_t>(m.size()) * 8;
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  for (int i = 0; i < 8; ++i) {
    const int shift = big_endian ? 56 - 8 * i : 8 * i;
    m.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  return m;
}

inline Bytes sha1(const Bytes& msg) {
  std::uint32_t h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};
  const Bytes m = md_pad(msg, true);
  for (std::size_t off = 0; off < m.size(); off += 64) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      const std::uint8_t* p = &m[off + 4 * static_cast<std::size_t>(i)];
      w[i] = (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
             (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
    }
    for (int i = 16; i < 80; ++i) w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const std::uint32_t t = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = t;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  Bytes out;
  for (std::uint32_t v : h) {
    for (int s = 24; s >= 0; s -= 8) out.push_back(static_cast<std::uint8_t>(v >> s));
  }
  return out;
}

inline Bytes md5(const Bytes& msg) {
  static const std::uint32_t kK[64] = {
      0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
      0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
      0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
      0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
      0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
      0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
      0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
      0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
      0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
      0xeb86d391};
  static const int kShift[64] = {7,  12, 17, 22, 7,  12, 17, 22, 7,  12, 17, 22, 7,  12, 17, 22,
                                 5,  9,  14, 20, 5,  9,  14, 20, 5,  9,  14, 20, 5,  9,  14, 20,
                                 4,  11, 16, 23, 4,  11, 16, 23, 4,  11, 16, 23, 4,  11, 16, 23,
                                 6,  10, 15, 21, 6,  10, 15, 21, 6,  10, 15, 21, 6,  10, 15, 21};
  std::uint32_t h[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
  const Bytes m = md_pad(msg, false);
  for (std::size_t off = 0; off < m.size(); off += 64) {
    std::uint32_t x[16];
    for (int i = 0; i < 16; ++i) {
      const std::uint8_t* p = &m[off + 4 * static_cast<std::size_t>(i)];
      x[i] = static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
             (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | ((~b) & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | ((~d) & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | (~d));
        g = (7 * i) % 16;
      }
      const std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + rotl(a + f + kK[i] + x[g], kShift[i]);
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
  }
  Bytes out;
  for (std::uint32_t v : h) {
    for (int s = 0; s < 32; s += 8) out.push_back(static_cast<std::uint8_t>(v >> s));
  }
  return out;
}

/// RFC 2104: H((K0 ^ opad) || H((K0 ^ ipad) || text)), K0 the key hashed
/// when longer than the 64-byte block, then zero-padded to it.
template <typename HashFn>
Bytes hmac(HashFn hash, Bytes key, const Bytes& text) {
  if (key.size() > 64) key = hash(key);
  key.resize(64, 0);
  Bytes inner, outer;
  for (std::uint8_t k : key) inner.push_back(static_cast<std::uint8_t>(k ^ 0x36));
  for (std::uint8_t k : key) outer.push_back(static_cast<std::uint8_t>(k ^ 0x5c));
  inner.insert(inner.end(), text.begin(), text.end());
  const Bytes inner_digest = hash(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return hash(outer);
}

}  // namespace wsp::ref
