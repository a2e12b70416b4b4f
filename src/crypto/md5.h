// MD5 (RFC 1321) — used by SSLv3-style key derivation in src/ssl.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsp {

class Md5 {
 public:
  static constexpr std::size_t kDigestSize = 16;
  static constexpr std::size_t kBlockSize = 64;

  Md5();
  void update(const std::uint8_t* data, std::size_t n);
  void update(const std::vector<std::uint8_t>& data) { update(data.data(), data.size()); }
  std::array<std::uint8_t, kDigestSize> digest();

  static std::array<std::uint8_t, kDigestSize> hash(const std::uint8_t* data, std::size_t n);
  static std::array<std::uint8_t, kDigestSize> hash(const std::vector<std::uint8_t>& data);

 private:
  /// Runs the compression function over `n` whole 64-byte blocks.
  void compress(const std::uint8_t* blocks, std::size_t n);

  std::uint32_t h_[4];
  std::uint64_t total_ = 0;
  std::uint8_t buf_[kBlockSize];
  std::size_t buf_len_ = 0;
};

}  // namespace wsp
