// A functional SSL-style secure channel (simplified SSLv3/TLS shape):
// RSA key-exchange handshake, SSLv3-style key derivation (MD5/SHA-1 mix),
// and an authenticated record layer (HMAC-SHA1 + 3DES-CBC / AES-128-CBC /
// RC4) — the protocol workload whose acceleration Fig. 8 reports.
//
// This is a protocol *model* for performance studies: the message framing
// is simplified and no certificate validation exists.  Cryptographic
// primitives are the library's real implementations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/rsa.h"
#include "support/random.h"

namespace wsp::ssl {

enum class Cipher { kTripleDesCbc, kAes128Cbc, kRc4 };

const char* to_string(Cipher cipher);

/// Record-layer key material sizes for a cipher suite (MAC keys are always
/// Sha1::kDigestSize).  Public so that session layers (server rekeying) can
/// size key-block derivations without re-encoding the suite table.
struct CipherProfile {
  std::size_t key_len = 0;
  std::size_t iv_len = 0;
};
CipherProfile cipher_profile(Cipher cipher);

/// Keys and state for one direction of a record-layer connection.
class SecureChannel {
 public:
  SecureChannel(Cipher cipher, std::vector<std::uint8_t> cipher_key,
                std::vector<std::uint8_t> mac_key, std::vector<std::uint8_t> iv);

  /// MAC-then-encrypt with an implicit sequence number; returns the record.
  std::vector<std::uint8_t> seal(const std::vector<std::uint8_t>& payload);

  /// Decrypts and authenticates; throws std::runtime_error on tampering.
  std::vector<std::uint8_t> open(const std::vector<std::uint8_t>& record);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Outcome of a completed handshake: paired channels plus the byte counts
/// exchanged (used by the workload model).
struct Handshake {
  SecureChannel client_write;  ///< client seals, server opens
  SecureChannel server_write;  ///< server seals, client opens
  std::vector<std::uint8_t> master_secret;
  std::size_t handshake_bytes = 0;  ///< wire bytes exchanged during setup
};

/// Deterministic wire-fault injection for a handshake (the secure-session
/// engine's chaos runs): the failure still exercises the real code path —
/// the server decrypts the corrupted premaster and the verification that
/// both sides agree fails, exactly as a man-in-the-middle flip would.
struct HandshakeFault {
  bool corrupt_premaster = false;  ///< flip one byte of the encrypted premaster
};

/// Runs the RSA key-exchange handshake between an in-process client and
/// server.  The client encrypts a 48-byte premaster under the server's
/// public key; both sides derive the master secret and record keys.
/// With a HandshakeFault the exchange is sabotaged on the wire and throws
/// std::runtime_error (the same failure path genuine corruption takes).
Handshake perform_handshake(const rsa::PrivateKey& server_key, Cipher cipher,
                            ModexpEngine& client_engine,
                            ModexpEngine& server_engine, Rng& rng,
                            const HandshakeFault* fault = nullptr);

/// SSLv3-style pseudo-random expansion:
/// block = MD5(secret || SHA1('A' || secret || r1 || r2)) || MD5(... 'BB' ...) || ...
std::vector<std::uint8_t> kdf_ssl3(const std::vector<std::uint8_t>& secret,
                                   const std::vector<std::uint8_t>& r1,
                                   const std::vector<std::uint8_t>& r2,
                                   std::size_t out_len);

}  // namespace wsp::ssl
