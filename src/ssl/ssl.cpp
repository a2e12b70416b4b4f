#include "ssl/ssl.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "support/trace.h"

#include "crypto/aes.h"
#include "crypto/ct.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/rc4.h"
#include "crypto/sha1.h"

namespace wsp::ssl {

const char* to_string(Cipher cipher) {
  switch (cipher) {
    case Cipher::kTripleDesCbc: return "3DES-CBC";
    case Cipher::kAes128Cbc: return "AES-128-CBC";
    case Cipher::kRc4: return "RC4";
  }
  return "?";
}

namespace {

std::vector<std::uint8_t> cbc_pad(std::vector<std::uint8_t> data, std::size_t block) {
  const std::size_t pad = block - (data.size() % block);
  data.insert(data.end(), pad, static_cast<std::uint8_t>(pad));
  return data;
}

std::vector<std::uint8_t> cbc_unpad(std::vector<std::uint8_t> data) {
  if (data.empty()) throw std::runtime_error("ssl: empty CBC plaintext");
  const std::uint8_t pad = data.back();
  if (pad == 0 || pad > data.size()) throw std::runtime_error("ssl: bad padding");
  for (std::size_t i = data.size() - pad; i < data.size(); ++i) {
    if (data[i] != pad) throw std::runtime_error("ssl: bad padding");
  }
  data.resize(data.size() - pad);
  return data;
}

}  // namespace

struct SecureChannel::Impl {
  Cipher cipher;
  std::vector<std::uint8_t> cipher_key;
  std::vector<std::uint8_t> mac_key;
  // The same channel object is shared by the sealing and the opening
  // endpoint (in-process transport), so each side keeps its own sequence
  // number and cipher chaining state.
  std::vector<std::uint8_t> iv_enc, iv_dec;
  std::uint64_t seq_out = 0, seq_in = 0;
  std::unique_ptr<Rc4> rc4_enc, rc4_dec;  // stream state persists across records

  // Key schedules, derived once per channel on first use (out of line, so
  // a channel of another cipher does not carry them).
  std::unique_ptr<aes::KeySchedule> aes_ks_cache;
  std::unique_ptr<des::TripleKeySchedule> des3_ks_cache;
  // The keyed MAC, likewise derived on first use: a resumed session never
  // seals on its server_write channel.
  std::unique_ptr<HmacSha1> mac_cache;

  const aes::KeySchedule& cached_aes_ks() {
    if (!aes_ks_cache) {
      aes_ks_cache = std::make_unique<aes::KeySchedule>(aes::key_schedule(cipher_key));
    }
    return *aes_ks_cache;
  }

  const des::TripleKeySchedule& cached_des3_ks() {
    if (!des3_ks_cache) {
      // EDE with the key split in three 8-byte parts.
      const std::uint8_t* k = cipher_key.data();
      des3_ks_cache = std::make_unique<des::TripleKeySchedule>(des::triple_key_schedule(
          des::load_be64(k), des::load_be64(k + 8), des::load_be64(k + 16)));
    }
    return *des3_ks_cache;
  }

  const HmacSha1& cached_mac() {
    if (!mac_cache) mac_cache = std::make_unique<HmacSha1>(mac_key);
    return *mac_cache;
  }

  /// The record MAC: HMAC-SHA1 over the 11-byte header (8-byte sequence
  /// number, application-data type, 2-byte length) followed by the payload.
  HmacSha1::Tag record_mac(std::uint64_t sequence, const std::uint8_t* payload,
                           std::size_t n) {
    std::uint8_t header[11];
    for (int i = 0; i < 8; ++i) header[i] = static_cast<std::uint8_t>(sequence >> (56 - 8 * i));
    header[8] = 0x17;  // application-data type
    header[9] = static_cast<std::uint8_t>(n >> 8);
    header[10] = static_cast<std::uint8_t>(n);
    return cached_mac().mac(header, sizeof header, payload, n);
  }

  std::vector<std::uint8_t> encrypt(std::vector<std::uint8_t> plain) {
    switch (cipher) {
      case Cipher::kTripleDesCbc: {
        auto out = cbc_pad(std::move(plain), 8);
        const std::uint64_t residue = des::encrypt_cbc_3des(
            out.data(), out.data(), out.size(), cached_des3_ks(), des::load_be64(iv_enc.data()));
        des::store_be64(residue, iv_enc.data());  // CBC residue chaining
        return out;
      }
      case Cipher::kAes128Cbc: {
        std::array<std::uint8_t, 16> aiv{};
        std::copy(iv_enc.begin(), iv_enc.begin() + 16, aiv.begin());
        const auto out = aes::encrypt_cbc(cbc_pad(std::move(plain), 16), cached_aes_ks(), aiv);
        iv_enc.assign(out.end() - 16, out.end());
        return out;
      }
      case Cipher::kRc4: {
        if (!rc4_enc) rc4_enc = std::make_unique<Rc4>(cipher_key);
        rc4_enc->process(plain.data(), plain.size());
        return plain;
      }
    }
    throw std::logic_error("ssl: bad cipher");
  }

  std::vector<std::uint8_t> decrypt(const std::vector<std::uint8_t>& ct) {
    switch (cipher) {
      case Cipher::kTripleDesCbc: {
        if (ct.size() % 8 != 0) throw std::runtime_error("ssl: bad record length");
        std::vector<std::uint8_t> out(ct.size());
        const std::uint64_t residue = des::decrypt_cbc_3des(
            ct.data(), out.data(), ct.size(), cached_des3_ks(), des::load_be64(iv_dec.data()));
        des::store_be64(residue, iv_dec.data());
        return cbc_unpad(std::move(out));
      }
      case Cipher::kAes128Cbc: {
        if (ct.size() % 16 != 0) throw std::runtime_error("ssl: bad record length");
        // An empty record would otherwise reach the residue update below
        // with ct.end() - 16 out of range; reject it with the same error
        // cbc_unpad raises for a decrypted-to-nothing record.
        if (ct.empty()) throw std::runtime_error("ssl: empty CBC plaintext");
        std::array<std::uint8_t, 16> aiv{};
        std::copy(iv_dec.begin(), iv_dec.begin() + 16, aiv.begin());
        auto out = aes::decrypt_cbc(ct, cached_aes_ks(), aiv);
        iv_dec.assign(ct.end() - 16, ct.end());
        return cbc_unpad(std::move(out));
      }
      case Cipher::kRc4: {
        if (!rc4_dec) rc4_dec = std::make_unique<Rc4>(cipher_key);
        return rc4_dec->process(ct);
      }
    }
    throw std::logic_error("ssl: bad cipher");
  }
};

SecureChannel::SecureChannel(Cipher cipher, std::vector<std::uint8_t> cipher_key,
                             std::vector<std::uint8_t> mac_key,
                             std::vector<std::uint8_t> iv)
    : impl_(std::make_shared<Impl>()) {
  // The CBC paths read the first iv_len IV bytes and the first 24 bytes
  // of a 3DES key.
  const CipherProfile prof = cipher_profile(cipher);
  if (iv.size() < prof.iv_len ||
      (cipher == Cipher::kTripleDesCbc && cipher_key.size() < prof.key_len)) {
    throw std::invalid_argument("ssl: key or IV too short for the cipher");
  }
  impl_->cipher = cipher;
  impl_->cipher_key = std::move(cipher_key);
  impl_->mac_key = std::move(mac_key);
  impl_->iv_enc = iv;
  impl_->iv_dec = std::move(iv);
}

std::vector<std::uint8_t> SecureChannel::seal(const std::vector<std::uint8_t>& payload) {
  WSP_TRACE_SPAN("ssl.record", "seal");
  std::vector<std::uint8_t> plain;
  plain.reserve(payload.size() + Sha1::kDigestSize + 16);  // tag + CBC padding
  plain.assign(payload.begin(), payload.end());
  {
    WSP_TRACE_SPAN("ssl.record", "seal/mac");
    const auto mac = impl_->record_mac(impl_->seq_out, payload.data(), payload.size());
    ++impl_->seq_out;
    plain.insert(plain.end(), mac.begin(), mac.end());
  }
  WSP_TRACE_SPAN("ssl.record", "seal/encrypt");
  return impl_->encrypt(std::move(plain));
}

std::vector<std::uint8_t> SecureChannel::open(const std::vector<std::uint8_t>& record) {
  WSP_TRACE_SPAN("ssl.record", "open");
  std::vector<std::uint8_t> plain;
  {
    WSP_TRACE_SPAN("ssl.record", "open/decrypt");
    plain = impl_->decrypt(record);
  }
  if (plain.size() < Sha1::kDigestSize) throw std::runtime_error("ssl: short record");
  WSP_TRACE_SPAN("ssl.record", "open/mac");
  const std::size_t n = plain.size() - Sha1::kDigestSize;
  const auto expect = impl_->record_mac(impl_->seq_in, plain.data(), n);
  ++impl_->seq_in;
  if (!ct::equal(plain.data() + n, expect.data(), expect.size())) {
    throw std::runtime_error("ssl: MAC verification failed");
  }
  plain.resize(n);
  return plain;
}

std::vector<std::uint8_t> kdf_ssl3(const std::vector<std::uint8_t>& secret,
                                   const std::vector<std::uint8_t>& r1,
                                   const std::vector<std::uint8_t>& r2,
                                   std::size_t out_len) {
  std::vector<std::uint8_t> out;
  out.reserve(out_len + Md5::kDigestSize);
  int round = 0;
  while (out.size() < out_len) {
    ++round;
    Sha1 inner;
    // Round r salts with r copies of the r-th letter: 'A', 'BB', 'CCC', ...
    std::array<std::uint8_t, 16> salt;
    salt.fill(static_cast<std::uint8_t>('A' + round - 1));
    for (int left = round; left > 0; left -= static_cast<int>(salt.size())) {
      inner.update(salt.data(), std::min(static_cast<std::size_t>(left), salt.size()));
    }
    inner.update(secret);
    inner.update(r1);
    inner.update(r2);
    const auto inner_digest = inner.digest();
    Md5 outer;
    outer.update(secret);
    outer.update(inner_digest.data(), inner_digest.size());
    const auto block = outer.digest();
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(out_len);
  return out;
}

CipherProfile cipher_profile(Cipher cipher) {
  switch (cipher) {
    case Cipher::kTripleDesCbc: return {24, 8};
    case Cipher::kAes128Cbc: return {16, 16};
    case Cipher::kRc4: return {16, 0};
  }
  throw std::logic_error("ssl: bad cipher");
}

Handshake perform_handshake(const rsa::PrivateKey& server_key, Cipher cipher,
                            ModexpEngine& client_engine,
                            ModexpEngine& server_engine, Rng& rng,
                            const HandshakeFault* fault) {
  WSP_TRACE_SPAN("ssl.handshake", "perform_handshake");
  // ClientHello / ServerHello randoms.
  const auto client_random = rng.bytes(32);
  const auto server_random = rng.bytes(32);

  // Client: premaster under the server's public key.
  const auto premaster = rng.bytes(48);
  std::vector<std::uint8_t> encrypted_premaster;
  {
    WSP_TRACE_SPAN("ssl.handshake", "premaster/encrypt");
    encrypted_premaster =
        rsa::encrypt(premaster, server_key.public_key(), client_engine, rng);
  }
  if (fault && fault->corrupt_premaster && !encrypted_premaster.empty()) {
    // Flip a mid-ciphertext byte "on the wire": the server either fails the
    // PKCS#1 unpadding or recovers a premaster the client does not hold.
    WSP_TRACE_INSTANT("ssl.handshake", "premaster/corrupted");
    encrypted_premaster[encrypted_premaster.size() / 2] ^= 0x01;
  }

  // Server: recover the premaster (the expensive private-key operation).
  std::vector<std::uint8_t> recovered;
  {
    WSP_TRACE_SPAN("ssl.handshake", "premaster/decrypt");
    recovered = rsa::decrypt(encrypted_premaster, server_key, server_engine);
  }
  if (recovered != premaster) throw std::runtime_error("ssl: handshake failure");

  // Both sides derive the master secret and the key block.
  WSP_TRACE_SPAN("ssl.handshake", "kdf");
  const auto master = kdf_ssl3(premaster, client_random, server_random, 48);
  const CipherProfile spec = cipher_profile(cipher);
  const std::size_t block_len = 2 * (Sha1::kDigestSize + spec.key_len + spec.iv_len);
  const auto key_block = kdf_ssl3(master, server_random, client_random, block_len);

  std::size_t off = 0;
  auto take = [&](std::size_t n) {
    std::vector<std::uint8_t> v(key_block.begin() + static_cast<std::ptrdiff_t>(off),
                                key_block.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    return v;
  };
  const auto client_mac = take(Sha1::kDigestSize);
  const auto server_mac = take(Sha1::kDigestSize);
  const auto client_key = take(spec.key_len);
  const auto server_key_bytes = take(spec.key_len);
  const auto client_iv = take(spec.iv_len);
  const auto server_iv = take(spec.iv_len);

  Handshake hs{
      SecureChannel(cipher, client_key, client_mac, client_iv),
      SecureChannel(cipher, server_key_bytes, server_mac, server_iv),
      master,
      // hello randoms + encrypted premaster + finished digests (2 x 36).
      32 + 32 + encrypted_premaster.size() + 72,
  };
  return hs;
}

}  // namespace wsp::ssl
