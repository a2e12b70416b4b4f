#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <vector>

#include "crypto/des.h"
#include "support/hex.h"
#include "support/random.h"

namespace wsp {
namespace {

TEST(Des, ClassicKnownAnswer) {
  // The canonical worked example (used in countless DES walkthroughs).
  const auto ks = des::key_schedule(0x133457799BBCDFF1ull);
  EXPECT_EQ(des::encrypt_block_ref(0x0123456789ABCDEFull, ks), 0x85E813540F0AB405ull);
  EXPECT_EQ(des::decrypt_block_ref(0x85E813540F0AB405ull, ks), 0x0123456789ABCDEFull);
}

TEST(Des, FipsVectors) {
  // From the NBS/NIST DES validation examples.
  struct Vec {
    std::uint64_t key, plain, cipher;
  };
  const Vec vecs[] = {
      {0x0101010101010101ull, 0x8000000000000000ull, 0x95F8A5E5DD31D900ull},
      {0x0101010101010101ull, 0x4000000000000000ull, 0xDD7F121CA5015619ull},
      {0x8001010101010101ull, 0x0000000000000000ull, 0x95A8D72813DAA94Dull},
      {0x7CA110454A1A6E57ull, 0x01A1D6D039776742ull, 0x690F5B0D9A26939Bull},
  };
  for (const auto& v : vecs) {
    const auto ks = des::key_schedule(v.key);
    EXPECT_EQ(des::encrypt_block_ref(v.plain, ks), v.cipher) << std::hex << v.key;
  }
}

TEST(Des, FastMatchesReference) {
  Rng rng(61);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t block = rng.next_u64();
    const auto ks = des::key_schedule(key);
    EXPECT_EQ(des::encrypt_block(block, ks), des::encrypt_block_ref(block, ks));
    EXPECT_EQ(des::decrypt_block(block, ks), des::decrypt_block_ref(block, ks));
  }
}

TEST(Des, EncryptDecryptRoundTrip) {
  Rng rng(62);
  const auto ks = des::key_schedule(rng.next_u64());
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::decrypt_block(des::encrypt_block(block, ks), ks), block);
  }
}

TEST(Des, IpFpAreInverses) {
  Rng rng(63);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::final_permutation(des::initial_permutation(block)), block);
    EXPECT_EQ(des::initial_permutation(des::final_permutation(block)), block);
  }
}

TEST(Des, FFunctionMatchesSpTables) {
  // f_function must agree with the per-S-box composition.
  Rng rng(64);
  for (int i = 0; i < 50; ++i) {
    const std::uint32_t r = rng.next_u32();
    const std::uint64_t k = rng.next_u64() & 0xFFFFFFFFFFFFull;
    const std::uint32_t f = des::f_function(r, k);
    EXPECT_EQ(des::f_function(r, k), f);  // deterministic
  }
}

TEST(TripleDes, KnownStructure) {
  // EDE with k1=k2=k3 degenerates to single DES.
  Rng rng(65);
  const std::uint64_t key = rng.next_u64();
  const auto single = des::key_schedule(key);
  const auto triple = des::triple_key_schedule(key, key, key);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::encrypt_block_3des(block, triple), des::encrypt_block(block, single));
  }
}

TEST(TripleDes, RoundTrip) {
  Rng rng(66);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::decrypt_block_3des(des::encrypt_block_3des(block, ks), ks), block);
  }
}

TEST(DesModes, EcbRoundTrip) {
  Rng rng(67);
  const auto ks = des::key_schedule(rng.next_u64());
  const auto data = rng.bytes(64);
  EXPECT_EQ(des::decrypt_ecb(des::encrypt_ecb(data, ks), ks), data);
}

TEST(DesModes, CbcRoundTripAndChaining) {
  Rng rng(68);
  const auto ks = des::key_schedule(rng.next_u64());
  const std::uint64_t iv = rng.next_u64();
  const auto data = rng.bytes(80);
  const auto ct = des::encrypt_cbc(data, ks, iv);
  EXPECT_EQ(des::decrypt_cbc(ct, ks, iv), data);
  // Identical plaintext blocks must produce different ciphertext blocks.
  std::vector<std::uint8_t> rep(32, 0xAA);
  const auto ct2 = des::encrypt_cbc(rep, ks, iv);
  EXPECT_NE(std::vector<std::uint8_t>(ct2.begin(), ct2.begin() + 8),
            std::vector<std::uint8_t>(ct2.begin() + 8, ct2.begin() + 16));
}

TEST(DesModes, RejectsBadLength) {
  const auto ks = des::key_schedule(0);
  EXPECT_THROW(des::encrypt_ecb(std::vector<std::uint8_t>(7), ks),
               std::invalid_argument);
}

TEST(Des, Avalanche) {
  // Flipping one plaintext bit should flip roughly half the output bits.
  const auto ks = des::key_schedule(0x0123456789ABCDEFull);
  const std::uint64_t a = des::encrypt_block(0x1111111111111111ull, ks);
  const std::uint64_t b = des::encrypt_block(0x1111111111111110ull, ks);
  const int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

// --- Fast path against the bit-level oracle -------------------------------
//
// The weak and semi-weak keys give degenerate schedules (all-equal or
// pairwise-mirrored subkeys), and all-zero / all-one blocks hit table index
// 0 and 255 on every byte: edge inputs a random sweep would rarely reach.

constexpr std::uint64_t kWeakAndSemiWeakKeys[] = {
    0x0101010101010101ull, 0xFEFEFEFEFEFEFEFEull, 0xE0E0E0E0F1F1F1F1ull,
    0x1F1F1F1F0E0E0E0Eull, 0x011F011F010E010Eull, 0x1F011F010E010E01ull,
    0x01E001E001F101F1ull, 0xE001E001F101F101ull, 0x01FE01FE01FE01FEull,
    0xFE01FE01FE01FE01ull, 0x1FE01FE00EF10EF1ull, 0xE01FE01FF10EF10Eull,
    0x1FFE1FFE0EFE0EFEull, 0xFE1FFE1FFE0EFE0Eull, 0xE0FEE0FEF1FEF1FEull,
    0xFEE0FEE0FEF1FEF1ull};

std::vector<std::uint64_t> edge_and_random_blocks(Rng& rng, int random) {
  std::vector<std::uint64_t> blocks = {0, ~0ull, 0x8000000000000000ull, 1};
  for (int i = 0; i < random; ++i) blocks.push_back(rng.next_u64());
  return blocks;
}

std::uint64_t encrypt_3des_ref(std::uint64_t b, const des::TripleKeySchedule& ks) {
  return des::encrypt_block_ref(des::decrypt_block_ref(des::encrypt_block_ref(b, ks.k1), ks.k2),
                                ks.k3);
}

std::uint64_t decrypt_3des_ref(std::uint64_t b, const des::TripleKeySchedule& ks) {
  return des::decrypt_block_ref(des::encrypt_block_ref(des::decrypt_block_ref(b, ks.k3), ks.k2),
                                ks.k1);
}

TEST(DesDiff, BlockMatchesOracle) {
  Rng rng(71);
  std::vector<std::uint64_t> keys(std::begin(kWeakAndSemiWeakKeys),
                                  std::end(kWeakAndSemiWeakKeys));
  keys.push_back(0);
  keys.push_back(~0ull);
  for (int i = 0; i < 64; ++i) keys.push_back(rng.next_u64());
  for (const std::uint64_t key : keys) {
    const auto ks = des::key_schedule(key);
    for (const std::uint64_t b : edge_and_random_blocks(rng, 16)) {
      ASSERT_EQ(des::encrypt_block(b, ks), des::encrypt_block_ref(b, ks))
          << std::hex << "key " << key << " block " << b;
      ASSERT_EQ(des::decrypt_block(b, ks), des::decrypt_block_ref(b, ks))
          << std::hex << "key " << key << " block " << b;
    }
  }
}

TEST(DesDiff, WeakKeysAreInvolutionsAndSemiWeakPairsInvertEachOther) {
  Rng rng(72);
  for (int i = 0; i < 16; i += 2) {
    const auto a = des::key_schedule(kWeakAndSemiWeakKeys[i]);
    const auto b = des::key_schedule(kWeakAndSemiWeakKeys[i + 1]);
    for (const std::uint64_t x : edge_and_random_blocks(rng, 8)) {
      if (i < 4) {  // the four weak keys
        EXPECT_EQ(des::encrypt_block(des::encrypt_block(x, a), a), x);
        EXPECT_EQ(des::encrypt_block(des::encrypt_block(x, b), b), x);
      } else {
        EXPECT_EQ(des::encrypt_block(des::encrypt_block(x, a), b), x);
        EXPECT_EQ(des::encrypt_block(des::encrypt_block(x, b), a), x);
      }
    }
  }
}

TEST(DesDiff, TripleMatchesOracleComposition) {
  Rng rng(73);
  std::vector<des::TripleKeySchedule> schedules;
  for (int i = 0; i < 48; ++i) {
    schedules.push_back(des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                                 rng.next_u64()));
  }
  // Weak and semi-weak keys in each of the three positions.
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t w = kWeakAndSemiWeakKeys[i];
    const std::uint64_t w2 = kWeakAndSemiWeakKeys[(i + 5) % 16];
    schedules.push_back(des::triple_key_schedule(w, rng.next_u64(), w2));
    schedules.push_back(des::triple_key_schedule(rng.next_u64(), w, rng.next_u64()));
  }
  for (const auto& ks : schedules) {
    for (const std::uint64_t b : edge_and_random_blocks(rng, 8)) {
      ASSERT_EQ(des::encrypt_block_3des(b, ks), encrypt_3des_ref(b, ks)) << std::hex << b;
      ASSERT_EQ(des::decrypt_block_3des(b, ks), decrypt_3des_ref(b, ks)) << std::hex << b;
    }
  }
}

TEST(DesDiff, FFunctionMatchesOracle) {
  Rng rng(74);
  const std::uint64_t k48_edges[] = {0, 0xFFFFFFFFFFFFull, 0x800000000001ull};
  const std::uint32_t r_edges[] = {0, 0xFFFFFFFFu, 0x80000001u, 1};
  for (const std::uint64_t k : k48_edges) {
    for (const std::uint32_t r : r_edges) {
      EXPECT_EQ(des::f_function(r, k), des::f_function_ref(r, k));
    }
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t r = rng.next_u32();
    const std::uint64_t k = rng.next_u64() & 0xFFFFFFFFFFFFull;
    ASSERT_EQ(des::f_function(r, k), des::f_function_ref(r, k)) << std::hex << r << " " << k;
  }
  // The pre-split subkeys are exactly the 6-bit groups of k48.
  const auto ks = des::key_schedule(rng.next_u64());
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(ks.k6[round][i], (ks.k48[round] >> (42 - 6 * i)) & 0x3f);
    }
  }
}

TEST(DesDiff, PermutationTablesMatchOracleOnEverySingleBit) {
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t x = 1ull << bit;
    EXPECT_EQ(des::initial_permutation(x), des::initial_permutation_ref(x)) << bit;
    EXPECT_EQ(des::final_permutation(x), des::final_permutation_ref(x)) << bit;
  }
  Rng rng(75);
  for (const std::uint64_t x : edge_and_random_blocks(rng, 500)) {
    EXPECT_EQ(des::initial_permutation(x), des::initial_permutation_ref(x));
    EXPECT_EQ(des::final_permutation(x), des::final_permutation_ref(x));
  }
}

TEST(DesDiff, Cbc3desChainsResidueAndWorksInPlace) {
  Rng rng(76);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  const auto data = rng.bytes(8 * 13);
  const std::uint64_t iv = rng.next_u64();
  // Oracle: the block composition, chained by hand.
  std::vector<std::uint8_t> want(data.size());
  std::uint64_t chain = iv;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    chain = encrypt_3des_ref(des::load_be64(data.data() + i) ^ chain, ks);
    des::store_be64(chain, want.data() + i);
  }
  // Two calls chained through the returned residue equal one call.
  std::vector<std::uint8_t> ct(data.size());
  const std::uint64_t mid = des::encrypt_cbc_3des(data.data(), ct.data(), 40, ks, iv);
  const std::uint64_t end =
      des::encrypt_cbc_3des(data.data() + 40, ct.data() + 40, data.size() - 40, ks, mid);
  EXPECT_EQ(ct, want);
  EXPECT_EQ(end, chain);
  // In place, and back.
  std::vector<std::uint8_t> buf = ct;
  EXPECT_EQ(des::decrypt_cbc_3des(buf.data(), buf.data(), buf.size(), ks, iv), end);
  EXPECT_EQ(buf, data);
  EXPECT_EQ(des::encrypt_cbc_3des(data.data(), ct.data(), 0, ks, iv), iv);
  EXPECT_THROW(des::encrypt_cbc_3des(data.data(), ct.data(), 12, ks, iv),
               std::invalid_argument);
  EXPECT_THROW(des::decrypt_cbc_3des(data.data(), ct.data(), 7, ks, iv),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsp
