// HMAC (RFC 2104) over the library's hash functions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/md5.h"
#include "crypto/sha1.h"

namespace wsp {

/// HMAC under one fixed key.  The constructor absorbs the key's ipad and
/// opad blocks once; every mac() then starts from those two midstates, so a
/// tag costs only the message's compressions plus two finishing ones, and
/// allocates nothing.
template <typename Hash>
class Hmac {
 public:
  static constexpr std::size_t kTagSize = Hash::kDigestSize;
  using Tag = std::array<std::uint8_t, kTagSize>;

  /// Keys longer than one hash block are hashed first (RFC 2104).
  Hmac(const std::uint8_t* key, std::size_t n);
  explicit Hmac(const std::vector<std::uint8_t>& key) : Hmac(key.data(), key.size()) {}

  /// Tag of `a || b`: a record header and its payload need no joint buffer.
  Tag mac(const std::uint8_t* a, std::size_t an, const std::uint8_t* b = nullptr,
          std::size_t bn = 0) const;

 private:
  Hash inner_;  ///< hash state after the key ^ ipad block
  Hash outer_;  ///< hash state after the key ^ opad block
};

using HmacSha1 = Hmac<Sha1>;
using HmacMd5 = Hmac<Md5>;

/// HMAC-SHA1 of `data` under `key`; returns the 20-byte tag.
std::vector<std::uint8_t> hmac_sha1(const std::vector<std::uint8_t>& key,
                                    const std::vector<std::uint8_t>& data);

/// HMAC-MD5 of `data` under `key`; returns the 16-byte tag.
std::vector<std::uint8_t> hmac_md5(const std::vector<std::uint8_t>& key,
                                   const std::vector<std::uint8_t>& data);

}  // namespace wsp
