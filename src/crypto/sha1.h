// SHA-1 (FIPS-180) — used by the SSL record-layer MACs and key derivation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsp {

/// Incremental SHA-1 context.
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1();
  void update(const std::uint8_t* data, std::size_t n);
  void update(const std::vector<std::uint8_t>& data) { update(data.data(), data.size()); }
  std::array<std::uint8_t, kDigestSize> digest();  ///< finalizes; context unusable after

  /// One-shot convenience.
  static std::array<std::uint8_t, kDigestSize> hash(const std::uint8_t* data, std::size_t n);
  static std::array<std::uint8_t, kDigestSize> hash(const std::vector<std::uint8_t>& data);

 private:
  /// Runs the compression function over `n` whole 64-byte blocks.
  void compress(const std::uint8_t* blocks, std::size_t n);

  std::uint32_t h_[5];
  std::uint64_t total_ = 0;
  std::uint8_t buf_[kBlockSize];
  std::size_t buf_len_ = 0;
};

}  // namespace wsp
