#include "crypto/hmac.h"

#include <algorithm>

namespace wsp {

template <typename Hash>
Hmac<Hash>::Hmac(const std::uint8_t* key, std::size_t n) {
  std::uint8_t k[Hash::kBlockSize] = {};
  if (n > Hash::kBlockSize) {
    const auto d = Hash::hash(key, n);
    std::copy(d.begin(), d.end(), k);
  } else {
    std::copy(key, key + n, k);
  }
  std::uint8_t pad[Hash::kBlockSize];
  for (std::size_t i = 0; i < Hash::kBlockSize; ++i) pad[i] = k[i] ^ 0x36;
  inner_.update(pad, Hash::kBlockSize);
  for (std::size_t i = 0; i < Hash::kBlockSize; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.update(pad, Hash::kBlockSize);
}

template <typename Hash>
typename Hmac<Hash>::Tag Hmac<Hash>::mac(const std::uint8_t* a, std::size_t an,
                                         const std::uint8_t* b, std::size_t bn) const {
  Hash inner = inner_;
  inner.update(a, an);
  inner.update(b, bn);
  const auto inner_digest = inner.digest();
  Hash outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.digest();
}

template class Hmac<Sha1>;
template class Hmac<Md5>;

std::vector<std::uint8_t> hmac_sha1(const std::vector<std::uint8_t>& key,
                                    const std::vector<std::uint8_t>& data) {
  const auto tag = HmacSha1(key).mac(data.data(), data.size());
  return {tag.begin(), tag.end()};
}

std::vector<std::uint8_t> hmac_md5(const std::vector<std::uint8_t>& key,
                                   const std::vector<std::uint8_t>& data) {
  const auto tag = HmacMd5(key).mac(data.data(), data.size());
  return {tag.begin(), tag.end()};
}

}  // namespace wsp
