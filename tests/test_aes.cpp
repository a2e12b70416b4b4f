#include <gtest/gtest.h>

#include <vector>

#include "crypto/aes.h"
#include "support/hex.h"
#include "support/random.h"

namespace wsp {
namespace {

std::vector<std::uint8_t> hexv(const char* s) { return from_hex(s); }

TEST(Aes, Fips197KnownAnswers) {
  const auto plain = hexv("00112233445566778899aabbccddeeff");
  struct Vec {
    const char* key;
    const char* cipher;
  };
  const Vec vecs[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& v : vecs) {
    const auto ks = aes::key_schedule(hexv(v.key));
    std::uint8_t out[16];
    aes::encrypt_block_ref(plain.data(), out, ks);
    EXPECT_EQ(to_hex(out, 16), v.cipher);
    std::uint8_t back[16];
    aes::decrypt_block_ref(out, back, ks);
    EXPECT_EQ(to_hex(back, 16), to_hex(plain));
  }
}

TEST(Aes, TTableMatchesReference) {
  Rng rng(71);
  for (std::size_t klen : {16u, 24u, 32u}) {
    const auto ks = aes::key_schedule(rng.bytes(klen));
    for (int i = 0; i < 100; ++i) {
      const auto block = rng.bytes(16);
      std::uint8_t a[16], b[16];
      aes::encrypt_block_ref(block.data(), a, ks);
      aes::encrypt_block(block.data(), b, ks);
      EXPECT_EQ(to_hex(a, 16), to_hex(b, 16)) << "klen=" << klen;
    }
  }
}

// The table-driven inverse cipher against the byte-level oracle, for every
// key size, on random keys and blocks plus the all-zero / all-one edges.
TEST(AesDiff, DecryptMatchesReferenceAllKeySizes) {
  Rng rng(72);
  for (std::size_t klen : {16u, 24u, 32u}) {
    std::vector<std::vector<std::uint8_t>> keys = {
        std::vector<std::uint8_t>(klen, 0x00), std::vector<std::uint8_t>(klen, 0xff)};
    for (int i = 0; i < 16; ++i) keys.push_back(rng.bytes(klen));
    for (const auto& key : keys) {
      const auto ks = aes::key_schedule(key);
      std::vector<std::vector<std::uint8_t>> blocks = {
          std::vector<std::uint8_t>(16, 0x00), std::vector<std::uint8_t>(16, 0xff)};
      for (int i = 0; i < 16; ++i) blocks.push_back(rng.bytes(16));
      for (const auto& block : blocks) {
        std::uint8_t want[16], got[16], back[16];
        aes::decrypt_block_ref(block.data(), want, ks);
        aes::decrypt_block(block.data(), got, ks);
        ASSERT_EQ(to_hex(got, 16), to_hex(want, 16))
            << "klen=" << klen << " block " << to_hex(block);
        aes::encrypt_block(got, back, ks);
        ASSERT_EQ(to_hex(back, 16), to_hex(block)) << "klen=" << klen;
      }
    }
  }
}

TEST(Aes, SboxIsPermutationWithKnownFixedValues) {
  const auto& sb = aes::sbox();
  const auto& inv = aes::inv_sbox();
  std::set<int> seen;
  for (int i = 0; i < 256; ++i) seen.insert(sb[static_cast<std::size_t>(i)]);
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(sb[0x00], 0x63);  // FIPS-197 fixed points of the table
  EXPECT_EQ(sb[0x01], 0x7c);
  EXPECT_EQ(sb[0x53], 0xed);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(inv[sb[static_cast<std::size_t>(i)]], i);
  }
}

TEST(Aes, GfMulProperties) {
  // x * 1 = x; distributivity over xor; known product.
  Rng rng(72);
  for (int i = 0; i < 100; ++i) {
    const std::uint8_t a = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint8_t b = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint8_t c = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(aes::gf_mul(a, 1), a);
    EXPECT_EQ(aes::gf_mul(a, static_cast<std::uint8_t>(b ^ c)),
              aes::gf_mul(a, b) ^ aes::gf_mul(a, c));
  }
  EXPECT_EQ(aes::gf_mul(0x57, 0x83), 0xc1);  // FIPS-197 worked example
}

TEST(Aes, KeyScheduleRejectsBadSizes) {
  EXPECT_THROW(aes::key_schedule(std::vector<std::uint8_t>(15)), std::invalid_argument);
  EXPECT_THROW(aes::key_schedule(std::vector<std::uint8_t>(33)), std::invalid_argument);
}

TEST(AesModes, EcbRoundTrip) {
  Rng rng(73);
  const auto ks = aes::key_schedule(rng.bytes(16));
  const auto data = rng.bytes(128);
  EXPECT_EQ(aes::decrypt_ecb(aes::encrypt_ecb(data, ks), ks), data);
}

TEST(AesModes, CbcRoundTrip) {
  Rng rng(74);
  const auto ks = aes::key_schedule(rng.bytes(32));
  std::array<std::uint8_t, 16> iv{};
  const auto ivb = rng.bytes(16);
  std::copy(ivb.begin(), ivb.end(), iv.begin());
  const auto data = rng.bytes(160);
  const auto ct = aes::encrypt_cbc(data, ks, iv);
  EXPECT_EQ(aes::decrypt_cbc(ct, ks, iv), data);
  EXPECT_NE(ct, data);
}

TEST(AesModes, RejectsBadLength) {
  const auto ks = aes::key_schedule(std::vector<std::uint8_t>(16, 0));
  EXPECT_THROW(aes::encrypt_ecb(std::vector<std::uint8_t>(15), ks),
               std::invalid_argument);
}

TEST(Aes, Avalanche) {
  Rng rng(75);
  const auto ks = aes::key_schedule(rng.bytes(16));
  auto p1 = rng.bytes(16);
  auto p2 = p1;
  p2[0] ^= 1;
  std::uint8_t c1[16], c2[16];
  aes::encrypt_block(p1.data(), c1, ks);
  aes::encrypt_block(p2.data(), c2, ks);
  int flipped = 0;
  for (int i = 0; i < 16; ++i) flipped += __builtin_popcount(c1[i] ^ c2[i]);
  EXPECT_GT(flipped, 32);
  EXPECT_LT(flipped, 96);
}

}  // namespace
}  // namespace wsp
