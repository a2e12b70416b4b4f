// Golden known-answer tests from the primary standards documents:
//   * AES — FIPS-197 Appendix B (cipher example) and Appendix C (all three
//     key sizes), checked against the reference rounds, the T-table path,
//     and the XR32 AES kernel on the ISS;
//   * DES — FIPS-81 sample plus the classic NBS known-answer vectors,
//     checked against the bit-level reference, the SP-table path, and both
//     XR32 DES kernel forms; the SP 800-67 three-key 3DES example through
//     the fused pass, the oracle composition and every lane position;
//   * SHA-1 — FIPS 180 examples (including the one-million-'a' vector),
//     checked against the host implementation and the XR32 SHA-1 kernel;
//   * MD5 — RFC 1321 Appendix A.5 test suite;
//   * HMAC-MD5 / HMAC-SHA1 — RFC 2202 test cases.
//
// These pin the implementations to published constants; the structured
// sweeps and fuzz tests elsewhere only prove internal consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/aes_mb.h"
#include "crypto/des.h"
#include "crypto/des_mb.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "kernels/aes_kernel.h"
#include "kernels/des_kernel.h"
#include "kernels/sha1_kernel.h"
#include "support/hex.h"

namespace wsp {
namespace {

std::vector<std::uint8_t> ascii(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

template <typename Container>
std::string hex(const Container& c) {
  return to_hex(std::vector<std::uint8_t>(c.begin(), c.end()));
}

// --- AES (FIPS-197) --------------------------------------------------------

struct AesVector {
  const char* key;
  const char* plaintext;
  const char* ciphertext;
};

// Appendix B worked example plus Appendix C.1/C.2/C.3.
const AesVector kAesVectors[] = {
    {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"},
    {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
    {"000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"},
    {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"},
};

TEST(KatAes, Fips197HostRefAndTtable) {
  for (const AesVector& v : kAesVectors) {
    const auto key = from_hex(v.key);
    const auto pt = from_hex(v.plaintext);
    const auto ks = aes::key_schedule(key);
    std::uint8_t ct[16], back[16];

    aes::encrypt_block_ref(pt.data(), ct, ks);
    EXPECT_EQ(to_hex(ct, 16), v.ciphertext) << "ref keylen=" << key.size();
    aes::decrypt_block_ref(ct, back, ks);
    EXPECT_EQ(to_hex(back, 16), v.plaintext) << "ref keylen=" << key.size();

    aes::encrypt_block(pt.data(), ct, ks);
    EXPECT_EQ(to_hex(ct, 16), v.ciphertext) << "ttable keylen=" << key.size();
    aes::decrypt_block(ct, back, ks);
    EXPECT_EQ(to_hex(back, 16), v.plaintext) << "ttable keylen=" << key.size();
  }
}

TEST(KatAes, Fips197IssKernelAllKeySizes) {
  kernels::Machine m = kernels::make_aes_machine(kernels::AesKernelVariant::kBase);
  kernels::AesKernel k(m, kernels::AesKernelVariant::kBase);
  for (const AesVector& v : kAesVectors) {
    k.set_key(from_hex(v.key));
    EXPECT_EQ(to_hex(k.encrypt_block(from_hex(v.plaintext))), v.ciphertext)
        << "keylen=" << from_hex(v.key).size();
  }
}

// A single CBC block under an all-zero IV is exactly one ECB block, so the
// published ECB vectors also pin the multi-buffer CBC kernels.  Each vector
// is placed in EVERY lane position of a full 8-wide batch, with the other
// seven lanes running decoy vectors (different keys — for AES different key
// SIZES, which exercises the by-rounds partitioning) to prove no lane reads
// a neighbor's key schedule or state.
TEST(KatAes, Fips197MultiBufferEveryLanePosition) {
  constexpr int kLanes = 8;
  std::vector<aes::KeySchedule> schedules;
  for (const AesVector& v : kAesVectors) {
    schedules.push_back(aes::key_schedule(from_hex(v.key)));
  }
  const int n = static_cast<int>(std::size(kAesVectors));
  for (int vi = 0; vi < n; ++vi) {
    for (int pos = 0; pos < kLanes; ++pos) {
      std::uint8_t in[kLanes][16], out[kLanes][16], chain[kLanes][16];
      aes_mb::CbcLane lanes[kLanes];
      const char* want_ct[kLanes];
      const char* want_pt[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        // The vector under test sits at `pos`; decoys cycle the others.
        const int which = l == pos ? vi : (vi + 1 + l) % n;
        const AesVector& v = kAesVectors[which];
        const auto pt = from_hex(v.plaintext);
        std::copy(pt.begin(), pt.end(), in[l]);
        std::fill(chain[l], chain[l] + 16, 0);
        lanes[l] = {&schedules[which], in[l], out[l], 1, chain[l]};
        want_ct[l] = v.ciphertext;
        want_pt[l] = v.plaintext;
      }
      aes_mb::encrypt_cbc(lanes, kLanes, kLanes);
      for (int l = 0; l < kLanes; ++l) {
        EXPECT_EQ(to_hex(out[l], 16), want_ct[l])
            << "encrypt vector " << vi << " at lane " << pos << ", lane " << l;
      }
      // Decrypt direction: feed the ciphertexts back under fresh zero IVs.
      for (int l = 0; l < kLanes; ++l) {
        std::copy(out[l], out[l] + 16, in[l]);
        std::fill(chain[l], chain[l] + 16, 0);
      }
      aes_mb::decrypt_cbc(lanes, kLanes, kLanes);
      for (int l = 0; l < kLanes; ++l) {
        EXPECT_EQ(to_hex(out[l], 16), want_pt[l])
            << "decrypt vector " << vi << " at lane " << pos << ", lane " << l;
      }
    }
  }
}

// --- DES (FIPS-81 / NBS known-answer vectors) ------------------------------

struct DesVector {
  std::uint64_t key;
  std::uint64_t plaintext;
  std::uint64_t ciphertext;
};

const DesVector kDesVectors[] = {
    // FIPS-81 ECB sample: key 0123456789abcdef, "Now is t".
    {0x0123456789abcdefULL, 0x4e6f772069732074ULL, 0x3fa40e8a984d4815ULL},
    // NBS known-answer classics.
    {0x0000000000000000ULL, 0x0000000000000000ULL, 0x8ca64de9c1b123a7ULL},
    {0xffffffffffffffffULL, 0xffffffffffffffffULL, 0x7359b2163e4edc58ULL},
    {0x3000000000000000ULL, 0x1000000000000001ULL, 0x958e6e627a05557bULL},
};

TEST(KatDes, Fips81HostRefAndSpTables) {
  for (const DesVector& v : kDesVectors) {
    const auto ks = des::key_schedule(v.key);
    EXPECT_EQ(des::encrypt_block_ref(v.plaintext, ks), v.ciphertext);
    EXPECT_EQ(des::decrypt_block_ref(v.ciphertext, ks), v.plaintext);
    EXPECT_EQ(des::encrypt_block(v.plaintext, ks), v.ciphertext);
    EXPECT_EQ(des::decrypt_block(v.ciphertext, ks), v.plaintext);
  }
}

TEST(KatDes, TripleDesDegeneratesToSingleDes) {
  // EDE with K1 = K2 = K3 is single DES — run the FIPS-81 vector through it.
  const auto ks3 = des::triple_key_schedule(0x0123456789abcdefULL,
                                            0x0123456789abcdefULL,
                                            0x0123456789abcdefULL);
  EXPECT_EQ(des::encrypt_block_3des(0x4e6f772069732074ULL, ks3),
            0x3fa40e8a984d4815ULL);
  EXPECT_EQ(des::decrypt_block_3des(0x3fa40e8a984d4815ULL, ks3),
            0x4e6f772069732074ULL);
}

// SP 800-67 three-key TDEA example: K1 != K2 != K3, so unlike the
// degenerate vector above it catches a key-order or stage-direction slip in
// the fused 3DES pass.  ECB, three blocks of "The quick brown fox jump".
constexpr std::uint64_t kTdeaKeys[3] = {0x0123456789ABCDEFULL, 0x23456789ABCDEF01ULL,
                                        0x456789ABCDEF0123ULL};
constexpr std::uint64_t kTdeaPlain[3] = {0x5468652071756663ULL, 0x6B2062726F776E20ULL,
                                         0x666F78206A756D70ULL};
constexpr std::uint64_t kTdeaCipher[3] = {0xA826FD8CE53B855FULL, 0xCCE21C8112256FE6ULL,
                                          0x68D5C05DD9B6B900ULL};

TEST(KatDes, Sp80067ThreeKeyTripleDes) {
  const auto ks3 = des::triple_key_schedule(kTdeaKeys[0], kTdeaKeys[1], kTdeaKeys[2]);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(des::encrypt_block_3des(kTdeaPlain[b], ks3), kTdeaCipher[b]) << b;
    EXPECT_EQ(des::decrypt_block_3des(kTdeaCipher[b], ks3), kTdeaPlain[b]) << b;
    // The bit-level oracle, composed stage by stage.
    EXPECT_EQ(des::encrypt_block_ref(
                  des::decrypt_block_ref(des::encrypt_block_ref(kTdeaPlain[b], ks3.k1), ks3.k2),
                  ks3.k3),
              kTdeaCipher[b])
        << b;
  }
}

// The same vector through every des_mb lane position at every lane width:
// with a zero IV, a one-block CBC lane is ECB.  Lane l of run `shift` holds
// block (l + shift) % 3, so each block visits each lane position.
TEST(KatDes, Sp80067ThreeKeyMultiBufferEveryLanePosition) {
  constexpr int kLanes = 8;
  const auto ks3 = des::triple_key_schedule(kTdeaKeys[0], kTdeaKeys[1], kTdeaKeys[2]);
  for (const unsigned width : {1u, 2u, 4u, 8u}) {
    for (int shift = 0; shift < 3; ++shift) {
      std::uint8_t in[kLanes][8], out[kLanes][8], chain[kLanes][8];
      des_mb::CbcLane lanes[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        des::store_be64(kTdeaPlain[(l + shift) % 3], in[l]);
        std::fill(chain[l], chain[l] + 8, 0);
        lanes[l] = {nullptr, &ks3, in[l], out[l], 1, chain[l]};
      }
      des_mb::encrypt_cbc(lanes, kLanes, width);
      for (int l = 0; l < kLanes; ++l) {
        EXPECT_EQ(des::load_be64(out[l]), kTdeaCipher[(l + shift) % 3])
            << "width " << width << " lane " << l;
        std::copy(out[l], out[l] + 8, in[l]);
        std::fill(chain[l], chain[l] + 8, 0);
      }
      des_mb::decrypt_cbc(lanes, kLanes, width);
      for (int l = 0; l < kLanes; ++l) {
        EXPECT_EQ(des::load_be64(out[l]), kTdeaPlain[(l + shift) % 3])
            << "width " << width << " lane " << l;
      }
    }
  }
}

// Same zero-IV single-block identity for the DES/3DES multi-buffer kernels:
// every NBS vector in every lane position, decoy single-DES lanes on the
// other vectors, plus one 3DES lane running the degenerate K1=K2=K3 FIPS-81
// vector — which also proves single and triple lanes coexist in one batch.
TEST(KatDes, Fips81MultiBufferEveryLanePosition) {
  constexpr int kLanes = 8;
  auto store_be64 = [](std::uint64_t v, std::uint8_t* out) {
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    }
  };
  auto load_be64 = [](const std::uint8_t* in) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
    return v;
  };
  std::vector<des::KeySchedule> schedules;
  for (const DesVector& v : kDesVectors) {
    schedules.push_back(des::key_schedule(v.key));
  }
  const auto ks3 = des::triple_key_schedule(0x0123456789abcdefULL,
                                            0x0123456789abcdefULL,
                                            0x0123456789abcdefULL);
  const int n = static_cast<int>(std::size(kDesVectors));
  for (int vi = 0; vi < n; ++vi) {
    for (int pos = 0; pos < kLanes; ++pos) {
      std::uint8_t in[kLanes][8], out[kLanes][8], chain[kLanes][8];
      des_mb::CbcLane lanes[kLanes];
      std::uint64_t want_ct[kLanes], want_pt[kLanes];
      const int triple_lane = (pos + 1) % kLanes;  // never the lane under test
      for (int l = 0; l < kLanes; ++l) {
        std::fill(chain[l], chain[l] + 8, 0);
        if (l == triple_lane) {
          // EDE with K1=K2=K3 degenerates to single DES (FIPS-81 sample).
          store_be64(0x4e6f772069732074ULL, in[l]);
          lanes[l] = {nullptr, &ks3, in[l], out[l], 1, chain[l]};
          want_ct[l] = 0x3fa40e8a984d4815ULL;
          want_pt[l] = 0x4e6f772069732074ULL;
          continue;
        }
        const int which = l == pos ? vi : (vi + 1 + l) % n;
        const DesVector& v = kDesVectors[which];
        store_be64(v.plaintext, in[l]);
        lanes[l] = {&schedules[which], nullptr, in[l], out[l], 1, chain[l]};
        want_ct[l] = v.ciphertext;
        want_pt[l] = v.plaintext;
      }
      des_mb::encrypt_cbc(lanes, kLanes, kLanes);
      for (int l = 0; l < kLanes; ++l) {
        EXPECT_EQ(load_be64(out[l]), want_ct[l])
            << "encrypt vector " << vi << " at lane " << pos << ", lane " << l;
      }
      for (int l = 0; l < kLanes; ++l) {
        std::copy(out[l], out[l] + 8, in[l]);
        std::fill(chain[l], chain[l] + 8, 0);
      }
      des_mb::decrypt_cbc(lanes, kLanes, kLanes);
      for (int l = 0; l < kLanes; ++l) {
        EXPECT_EQ(load_be64(out[l]), want_pt[l])
            << "decrypt vector " << vi << " at lane " << pos << ", lane " << l;
      }
    }
  }
}

TEST(KatDes, Fips81IssKernelBaseAndTie) {
  kernels::Machine bm = kernels::make_des_machine(false);
  kernels::Machine tm = kernels::make_des_machine(true);
  kernels::DesKernel bk(bm, false), tk(tm, true);
  for (const DesVector& v : kDesVectors) {
    bk.set_key(v.key);
    tk.set_key(v.key);
    EXPECT_EQ(bk.encrypt_block(v.plaintext), v.ciphertext);
    EXPECT_EQ(tk.encrypt_block(v.plaintext), v.ciphertext);
    EXPECT_EQ(bk.decrypt_block(v.ciphertext), v.plaintext);
    EXPECT_EQ(tk.decrypt_block(v.ciphertext), v.plaintext);
  }
}

// --- SHA-1 (FIPS 180) ------------------------------------------------------

TEST(KatSha1, Fips180Examples) {
  EXPECT_EQ(hex(Sha1::hash(ascii("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(Sha1::hash(ascii(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex(Sha1::hash(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(KatSha1, MillionAs) {
  std::vector<std::uint8_t> data(1000000, 'a');
  EXPECT_EQ(hex(Sha1::hash(data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(KatSha1, IssKernelMatchesFips180) {
  kernels::Machine m = kernels::make_sha1_machine();
  kernels::Sha1Kernel k(m);
  EXPECT_EQ(hex(k.hash(ascii("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(k.hash(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// --- MD5 (RFC 1321 A.5) ----------------------------------------------------

TEST(KatMd5, Rfc1321TestSuite) {
  const std::pair<const char*, const char*> vectors[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"a", "0cc175b9c0f1b6a831c399e269772661"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
      {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"1234567890123456789012345678901234567890123456789012345678901234567890"
       "1234567890",
       "57edf4a22be3c955ac49da2e2107b67a"},
  };
  for (const auto& [msg, want] : vectors) {
    EXPECT_EQ(hex(Md5::hash(ascii(msg))), want) << "msg=\"" << msg << "\"";
  }
}

// --- HMAC (RFC 2202) -------------------------------------------------------

TEST(KatHmac, Rfc2202Md5) {
  EXPECT_EQ(to_hex(hmac_md5(std::vector<std::uint8_t>(16, 0x0b),
                            ascii("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
  EXPECT_EQ(to_hex(hmac_md5(ascii("Jefe"),
                            ascii("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
  EXPECT_EQ(to_hex(hmac_md5(std::vector<std::uint8_t>(16, 0xaa),
                            std::vector<std::uint8_t>(50, 0xdd))),
            "56be34521d144c88dbb8c733f0e8b3f6");
  EXPECT_EQ(to_hex(hmac_md5(from_hex("0102030405060708090a0b0c0d0e0f10111213"
                                     "141516171819"),
                            std::vector<std::uint8_t>(50, 0xcd))),
            "697eaf0aca3a3aea3a75164746ffaa79");
  // Test 6: key larger than one hash block.
  EXPECT_EQ(to_hex(hmac_md5(
                std::vector<std::uint8_t>(80, 0xaa),
                ascii("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
}

TEST(KatHmac, Rfc2202Sha1) {
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0x0b),
                             ascii("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(to_hex(hmac_sha1(ascii("Jefe"),
                             ascii("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0xaa),
                             std::vector<std::uint8_t>(50, 0xdd))),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
  EXPECT_EQ(to_hex(hmac_sha1(from_hex("0102030405060708090a0b0c0d0e0f1011121"
                                      "3141516171819"),
                             std::vector<std::uint8_t>(50, 0xcd))),
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
  EXPECT_EQ(to_hex(hmac_sha1(
                std::vector<std::uint8_t>(80, 0xaa),
                ascii("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

}  // namespace
}  // namespace wsp
