#include "crypto/rc4.h"

#include <stdexcept>
#include <utility>

namespace wsp {

Rc4::Rc4(const std::vector<std::uint8_t>& key) {
  if (key.empty()) throw std::invalid_argument("rc4: empty key");
  for (int i = 0; i < 256; ++i) s_[i] = static_cast<std::uint8_t>(i);
  std::uint8_t j = 0;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<std::uint8_t>(j + s_[i] + key[static_cast<std::size_t>(i) % key.size()]);
    std::swap(s_[i], s_[j]);
  }
}

void Rc4::process(std::uint8_t* data, std::size_t n) {
  // i and j live in locals: `data` may alias the members, so stores through
  // it would otherwise force a reload of both on every byte.
  std::uint8_t i = i_, j = j_;
  for (std::size_t k = 0; k < n; ++k) {
    i = static_cast<std::uint8_t>(i + 1);
    const std::uint8_t si = s_[i];
    j = static_cast<std::uint8_t>(j + si);
    const std::uint8_t sj = s_[j];
    s_[i] = sj;
    s_[j] = si;
    data[k] ^= s_[static_cast<std::uint8_t>(si + sj)];
  }
  i_ = i;
  j_ = j;
}

std::vector<std::uint8_t> Rc4::process(const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out = data;
  process(out.data(), out.size());
  return out;
}

}  // namespace wsp
