// Functional SSL-style channel: handshake, record protection across all
// cipher suites, tamper detection, and the transaction cost model.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ssl/ssl.h"
#include "ssl/workload.h"

namespace wsp {
namespace {

using ssl::Cipher;
using ssl::perform_handshake;

const rsa::PrivateKey& server_key() {
  static const rsa::PrivateKey key = [] {
    Rng rng(431);
    return rsa::generate_key(512, rng);
  }();
  return key;
}

class SslCipherTest : public ::testing::TestWithParam<Cipher> {};

TEST_P(SslCipherTest, HandshakeAndBidirectionalTransfer) {
  Rng rng(432);
  ModexpEngine client_engine{ModexpConfig{}};
  ModexpEngine server_engine{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), GetParam(), client_engine,
                              server_engine, rng);
  EXPECT_EQ(hs.master_secret.size(), 48u);
  EXPECT_GT(hs.handshake_bytes, 100u);

  const std::vector<std::uint8_t> req = {'G', 'E', 'T', ' ', '/'};
  const auto wire1 = hs.client_write.seal(req);
  EXPECT_NE(wire1, req);
  EXPECT_EQ(hs.client_write.open(wire1), req);

  const auto resp = Rng(433).bytes(3000);
  const auto wire2 = hs.server_write.seal(resp);
  EXPECT_EQ(hs.server_write.open(wire2), resp);
}

TEST_P(SslCipherTest, SequencedRecordsDecryptInOrder) {
  Rng rng(434);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), GetParam(), ce, se, rng);
  std::vector<std::vector<std::uint8_t>> wires;
  for (int i = 0; i < 5; ++i) {
    wires.push_back(hs.client_write.seal({static_cast<std::uint8_t>(i), 42}));
  }
  for (int i = 0; i < 5; ++i) {
    const auto p = hs.client_write.open(wires[static_cast<std::size_t>(i)]);
    EXPECT_EQ(p[0], i);
  }
}

TEST_P(SslCipherTest, TamperedRecordRejected) {
  Rng rng(435);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), GetParam(), ce, se, rng);
  auto wire = hs.client_write.seal({1, 2, 3, 4, 5, 6, 7, 8});
  wire[2] ^= 0x80;
  EXPECT_THROW(hs.client_write.open(wire), std::runtime_error);
}

// Regression for the MAC timing side-channel fix: a forged record whose
// length is valid but whose MAC bytes differ (here: the last wire byte,
// which under RC4 maps 1:1 onto the last MAC byte) must be rejected by the
// constant-time comparison — including when only the final byte differs,
// the case an early-exit compare leaks fastest.
TEST(SslCtCompare, MacOnlyForgeryRejected) {
  Rng rng(436);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), Cipher::kRc4, ce, se, rng);
  auto wire = hs.client_write.seal({9, 9, 9, 9});
  wire.back() ^= 0x01;  // payload intact, MAC tail flipped
  EXPECT_THROW(hs.client_write.open(wire), std::runtime_error);
}

// Every byte of the tag counts: under RC4 the record's last 20 wire bytes
// map 1:1 onto the HMAC-SHA1 tag, and flipping any one of them (each on a
// fresh channel, so the keystream and sequence number line up) must make
// the in-place tag check fail; the untouched record still opens.
TEST(SslCtCompare, FlippingAnyTagByteFailsOpen) {
  const std::vector<std::uint8_t> key(16, 0x21), mac(20, 0x43), payload(300, 0x65);
  for (std::size_t i = 0; i < 20; ++i) {
    ssl::SecureChannel ch(Cipher::kRc4, key, mac, {});
    auto wire = ch.seal(payload);
    ASSERT_EQ(wire.size(), payload.size() + 20);
    wire[payload.size() + i] ^= 0x10;
    EXPECT_THROW(ch.open(wire), std::runtime_error) << "tag byte " << i;
  }
  ssl::SecureChannel ch(Cipher::kRc4, key, mac, {});
  EXPECT_EQ(ch.open(ch.seal(payload)), payload);
}

TEST(SslCipherProfile, MatchesSuiteKeySizes) {
  EXPECT_EQ(ssl::cipher_profile(Cipher::kTripleDesCbc).key_len, 24u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kTripleDesCbc).iv_len, 8u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kAes128Cbc).key_len, 16u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kAes128Cbc).iv_len, 16u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kRc4).key_len, 16u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kRc4).iv_len, 0u);
}

// The CBC record paths read the first iv_len IV bytes and a 3DES key's
// first 24 bytes in place, so shorter material is rejected up front.
TEST(SslChannel, RejectsKeyOrIvShorterThanTheCipherReads) {
  const std::vector<std::uint8_t> mac(20, 1);
  const std::vector<std::uint8_t> k24(24, 2), k23(23, 2), k16(16, 2);
  EXPECT_THROW(ssl::SecureChannel(Cipher::kTripleDesCbc, k23, mac, std::vector<std::uint8_t>(8)),
               std::invalid_argument);
  EXPECT_THROW(ssl::SecureChannel(Cipher::kTripleDesCbc, k24, mac, std::vector<std::uint8_t>(7)),
               std::invalid_argument);
  EXPECT_THROW(ssl::SecureChannel(Cipher::kAes128Cbc, k16, mac, std::vector<std::uint8_t>(15)),
               std::invalid_argument);
  EXPECT_NO_THROW(ssl::SecureChannel(Cipher::kTripleDesCbc, k24, mac, std::vector<std::uint8_t>(8)));
  EXPECT_NO_THROW(ssl::SecureChannel(Cipher::kAes128Cbc, k16, mac, std::vector<std::uint8_t>(16)));
  EXPECT_NO_THROW(ssl::SecureChannel(Cipher::kRc4, k16, mac, {}));
}

// A CBC record that is empty or not a whole number of blocks is rejected
// before it touches the receive chain or the sequence number, so the next
// genuine record still opens.
TEST(SslChannel, MalformedCbcRecordLengthsLeaveTheChannelIntact) {
  const std::vector<std::uint8_t> mac(20, 1);
  for (Cipher cipher : {Cipher::kTripleDesCbc, Cipher::kAes128Cbc}) {
    const ssl::CipherProfile prof = ssl::cipher_profile(cipher);
    ssl::SecureChannel ch(cipher, std::vector<std::uint8_t>(prof.key_len, 2),
                          mac, std::vector<std::uint8_t>(prof.iv_len, 3));
    EXPECT_THROW(ch.open(std::vector<std::uint8_t>(13, 0xab)),
                 std::runtime_error);
    EXPECT_THROW(ch.open({}), std::runtime_error);
    const std::vector<std::uint8_t> payload(80, 7);
    EXPECT_EQ(ch.open(ch.seal(payload)), payload) << ssl::to_string(cipher);
  }
}

INSTANTIATE_TEST_SUITE_P(Ciphers, SslCipherTest,
                         ::testing::Values(Cipher::kTripleDesCbc,
                                           Cipher::kAes128Cbc, Cipher::kRc4),
                         [](const ::testing::TestParamInfo<Cipher>& info) {
                           switch (info.param) {
                             case Cipher::kTripleDesCbc: return "des3";
                             case Cipher::kAes128Cbc: return "aes";
                             case Cipher::kRc4: return "rc4";
                           }
                           return "?";
                         });

TEST(SslKdf, DeterministicAndLengthExact) {
  const std::vector<std::uint8_t> secret(48, 0x11), r1(32, 0x22), r2(32, 0x33);
  const auto a = ssl::kdf_ssl3(secret, r1, r2, 104);
  const auto b = ssl::kdf_ssl3(secret, r1, r2, 104);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 104u);
  // Different randoms must give different keys.
  EXPECT_NE(a, ssl::kdf_ssl3(secret, r2, r1, 104));
}

TEST(SslWorkload, BreakdownShiftsWithTransactionSize) {
  ssl::PlatformCosts base = ssl::misc_cost_defaults();
  base.rsa_private_cycles = 60e6;
  base.rsa_public_cycles = 1e6;
  base.symmetric_cycles_per_byte = 1400.0;
  const auto small = ssl::transaction_cost(base, 1024);
  const auto large = ssl::transaction_cost(base, 32 * 1024);
  EXPECT_GT(small.public_key_fraction(), large.public_key_fraction());
  EXPECT_LT(small.symmetric_fraction(), large.symmetric_fraction());
  EXPECT_NEAR(small.public_key_fraction() + small.symmetric_fraction() +
                  small.misc_fraction(),
              1.0, 1e-9);
}

TEST(SslWorkload, SpeedupDecreasesWithSizeWhenPkDominatesGains) {
  ssl::PlatformCosts base = ssl::misc_cost_defaults();
  base.rsa_private_cycles = 60e6;
  base.rsa_public_cycles = 1e6;
  base.symmetric_cycles_per_byte = 1400.0;
  ssl::PlatformCosts opt = ssl::misc_cost_defaults();  // misc unchanged
  opt.rsa_private_cycles = 60e6 / 50.0;
  opt.rsa_public_cycles = 1e6 / 10.0;
  opt.symmetric_cycles_per_byte = 1400.0 / 30.0;
  const auto rows =
      ssl::ssl_speedup_table(base, opt, {1024, 4096, 16384, 32768});
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i].speedup, rows[i - 1].speedup)
        << "speedup must fall as unaccelerated misc grows";
  }
  EXPECT_GT(rows.front().speedup, 5.0);
  EXPECT_GT(rows.back().speedup, 1.0);
  const std::string table = ssl::format_speedup_table(rows);
  EXPECT_NE(table.find("1KB"), std::string::npos);
  EXPECT_NE(table.find("X"), std::string::npos);
}

}  // namespace
}  // namespace wsp
