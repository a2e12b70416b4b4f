#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "hash_reference.h"
#include "support/hex.h"
#include "support/random.h"

namespace wsp {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::string(s).size());
}

template <typename A>
std::string hex_of(const A& digest) {
  return to_hex(digest.data(), digest.size());
}

TEST(Sha1, KnownAnswers) {
  EXPECT_EQ(hex_of(Sha1::hash(bytes_of(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex_of(Sha1::hash(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex_of(Sha1::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 ctx;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_of(ctx.digest()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog etc");
  Sha1 ctx;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, data.size() - i);
    ctx.update(data.data() + i, n);
  }
  EXPECT_EQ(hex_of(ctx.digest()), hex_of(Sha1::hash(data)));
}

TEST(Md5, KnownAnswers) {
  EXPECT_EQ(hex_of(Md5::hash(bytes_of(""))), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex_of(Md5::hash(bytes_of("abc"))), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex_of(Md5::hash(bytes_of("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex_of(Md5::hash(bytes_of(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(HmacSha1, Rfc2202Vectors) {
  // Case 1.
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0x0b), bytes_of("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  // Case 2.
  EXPECT_EQ(to_hex(hmac_sha1(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  // Case 3: 20x 0xaa key, 50x 0xdd data.
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0xaa),
                             std::vector<std::uint8_t>(50, 0xdd))),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
  // Case 6: 80-byte key (longer than block handled by hashing... 80 < 64? no,
  // 80 > 64 exercises the key-hash path).
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(80, 0xaa),
                             bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacMd5, Rfc2202Vectors) {
  EXPECT_EQ(to_hex(hmac_md5(std::vector<std::uint8_t>(16, 0x0b), bytes_of("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
  EXPECT_EQ(to_hex(hmac_md5(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
}

TEST(Hmac, DifferentKeysDiffer) {
  const auto d = bytes_of("payload");
  EXPECT_NE(hmac_sha1(bytes_of("k1"), d), hmac_sha1(bytes_of("k2"), d));
}

// --- Differential checks against the specification-shaped references -------
// (hash_reference.h).  Lengths 0..300 cover every padding edge: 55/56 bytes
// (the length field just fits / spills into a second block), 63/64, 119/120.

template <typename Hash>
ref::Bytes lib_hash(const ref::Bytes& m) {
  const auto d = Hash::hash(m);
  return ref::Bytes(d.begin(), d.end());
}

template <typename Hash>
void check_every_length(ref::Bytes (*reference)(const ref::Bytes&), std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t n = 0; n <= 300; ++n) {
    const auto m = rng.bytes(n);
    ASSERT_EQ(to_hex(lib_hash<Hash>(m)), to_hex(reference(m))) << "length " << n;
  }
}

/// The same messages fed through update() in random pieces (empty pieces
/// included) must give the one-shot digest.
template <typename Hash>
void check_random_splits(ref::Bytes (*reference)(const ref::Bytes&), std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    const auto m = rng.bytes(rng.below(400));
    Hash ctx;
    std::size_t off = 0;
    while (off < m.size()) {
      const std::size_t take = std::min<std::size_t>(rng.below(140), m.size() - off);
      ctx.update(m.data() + off, take);
      off += take;
    }
    const auto d = ctx.digest();
    ASSERT_EQ(to_hex(d.data(), d.size()), to_hex(reference(m))) << "length " << m.size();
  }
}

TEST(Sha1Diff, EveryLengthUpTo300MatchesReference) {
  check_every_length<Sha1>(ref::sha1, 1801);
}

TEST(Sha1Diff, RandomUpdateSplitsMatchReference) {
  check_random_splits<Sha1>(ref::sha1, 1802);
}

TEST(Md5Diff, EveryLengthUpTo300MatchesReference) {
  check_every_length<Md5>(ref::md5, 1321);
}

TEST(Md5Diff, RandomUpdateSplitsMatchReference) {
  check_random_splits<Md5>(ref::md5, 1322);
}

/// The keyed HMAC (midstates cached at construction) against the RFC 2104
/// formula: keys of 0..200 bytes (past 64 they are hashed first) and
/// messages of 0..200 bytes; every split of the message into the two spans
/// of mac(a, b) gives the one-span tag.
template <typename Hash>
void check_keyed_hmac(ref::Bytes (*reference)(const ref::Bytes&), std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t kn = 0; kn <= 200; ++kn) {
    const auto key = rng.bytes(kn);
    const Hmac<Hash> keyed(key);
    for (std::size_t mn = 0; mn <= 200; ++mn) {
      const auto m = rng.bytes(mn);
      const auto want = to_hex(ref::hmac(reference, key, m));
      const auto one = keyed.mac(m.data(), m.size());
      ASSERT_EQ(to_hex(one.data(), one.size()), want) << "key " << kn << " msg " << mn;
      const std::size_t cut = rng.below(mn + 1);
      const auto two = keyed.mac(m.data(), cut, m.data() + cut, mn - cut);
      ASSERT_EQ(to_hex(two.data(), two.size()), want)
          << "key " << kn << " msg " << mn << " split " << cut;
    }
  }
}

TEST(HmacDiff, KeyedSha1MatchesRfc2104Formula) {
  check_keyed_hmac<Sha1>(ref::sha1, 2104);
}

TEST(HmacDiff, KeyedMd5MatchesRfc2104Formula) {
  check_keyed_hmac<Md5>(ref::md5, 2105);
}

TEST(HmacDiff, VectorWrappersMatchKeyedObject) {
  Rng rng(2106);
  for (std::size_t kn : {0u, 20u, 64u, 65u, 80u}) {
    const auto key = rng.bytes(kn);
    const auto m = rng.bytes(97);
    const auto s = HmacSha1(key).mac(m.data(), m.size());
    const auto d = HmacMd5(key).mac(m.data(), m.size());
    EXPECT_EQ(hmac_sha1(key, m), std::vector<std::uint8_t>(s.begin(), s.end()));
    EXPECT_EQ(hmac_md5(key, m), std::vector<std::uint8_t>(d.begin(), d.end()));
  }
}

}  // namespace
}  // namespace wsp
