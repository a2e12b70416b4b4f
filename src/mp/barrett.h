// Barrett reduction context — one of the paper's five candidate modular
// multiplication algorithms.  Precomputes mu = floor(B^(2k) / m) once per
// modulus and then reduces 2k-limb products with three truncated
// multiplications and at most two final subtractions (HAC Algorithm 14.42).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mp/cost.h"
#include "mp/mpn.h"

namespace wsp {

template <typename L>
class Barrett {
 public:
  static constexpr int kBits = mpn::LimbTraits<L>::bits;

  explicit Barrett(std::vector<L> modulus, CostHook* hook = nullptr)
      : m_(std::move(modulus)), hook_(hook) {
    m_.resize(mpn::normalize(m_.data(), m_.size()));
    if (m_.empty()) throw std::invalid_argument("Barrett: zero modulus");
    const std::size_t k = m_.size();
    // mu = floor(B^(2k) / m): divide a 2k+1-limb power of B by m.
    std::vector<L> b2k(2 * k + 1, 0);
    b2k[2 * k] = 1;
    mu_.assign(2 * k + 1 - k + 1, 0);
    std::vector<L> rem(k, 0);
    mpn::divrem(mu_.data(), rem.data(), b2k.data(), b2k.size(), m_.data(), k);
    note_divrem(hook_, b2k.size(), k, static_cast<unsigned>(kBits));
    mu_.resize(mpn::normalize(mu_.data(), mu_.size()));
    mk_.assign(k + 1, 0);
    std::copy(m_.begin(), m_.end(), mk_.begin());
    x_.resize(2 * k);
    q2_.resize(k + 1 + mu_.size());
    q3m_.resize(2 * k + 1);
    rr_.resize(k + 1);
  }

  std::size_t limbs() const { return m_.size(); }
  const std::vector<L>& modulus() const { return m_; }
  /// The precomputed constant mu = floor(B^(2k) / m).
  const std::vector<L>& mu() const { return mu_; }
  void set_hook(CostHook* hook) { hook_ = hook; }

  /// r = x mod m where x has at most 2k limbs.  r gets k limbs.
  void reduce(std::vector<L>& r, const std::vector<L>& x) const {
    const std::size_t n = std::min(x.size(), x_.size());
    std::copy(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n), x_.begin());
    std::fill(x_.begin() + static_cast<std::ptrdiff_t>(n), x_.end(), L{0});
    reduce_x(r);
  }

  /// r = (a * b) mod m for k-limb a, b.
  void mulmod(std::vector<L>& r, const std::vector<L>& a,
              const std::vector<L>& b) const {
    const std::size_t k = m_.size();
    mpn::mul(x_.data(), a.data(), k, b.data(), k);
    for (std::size_t j = 0; j < k; ++j) note(Prim::kAddMul1, k);
    reduce_x(r);
  }

 private:
  void note(Prim p, std::size_t n, std::size_t m = 0) const {
    if (hook_) hook_->on_prim(p, n, m, static_cast<unsigned>(kBits));
  }

  // r = x_ mod m, where x_ holds the 2k-limb input.
  void reduce_x(std::vector<L>& r) const {
    const std::size_t k = m_.size();
    // q1 = floor(x / B^(k-1)) — the top k+1 limbs of x;  q2 = q1 * mu.
    const L* q1 = x_.data() + (k - 1);
    mpn::mul(q2_.data(), q1, k + 1, mu_.data(), mu_.size());
    for (std::size_t j = 0; j < mu_.size(); ++j) note(Prim::kAddMul1, k + 1);
    // q3 = floor(q2 / B^(k+1)), truncated to k+1 limbs: mu >= B^k (m < B^k)
    // has at least k+1 limbs, so q2 has at least 2k+2.
    const L* q3 = q2_.data() + (k + 1);

    // r1 = x mod B^(k+1); r2 = (q3 * m) mod B^(k+1).
    mpn::mul(q3m_.data(), q3, k + 1, m_.data(), k);
    for (std::size_t j = 0; j < k; ++j) note(Prim::kAddMul1, k + 1);

    // r = r1 - r2 (mod B^(k+1)); the true remainder is < 3m so the wrap, if
    // any, is corrected by the subtraction loop below.
    L* rr = rr_.data();
    mpn::sub_n(rr, x_.data(), q3m_.data(), k + 1);
    note(Prim::kSubN, k + 1);

    // At most two subtractions of m.
    int guard = 0;
    while (mpn::cmp2(rr, k + 1, mk_.data(), k + 1) >= 0) {
      mpn::sub_n(rr, rr, mk_.data(), k + 1);
      note(Prim::kSubN, k + 1);
      if (++guard > 3) throw std::logic_error("Barrett: correction diverged");
    }
    note(Prim::kCmp, k);
    r.assign(rr, rr + k);
  }

  std::vector<L> m_;
  std::vector<L> mu_;
  std::vector<L> mk_;  ///< m zero-extended to k+1 limbs
  CostHook* hook_ = nullptr;
  // Per-reduction scratch, sized once at construction so reduce/mulmod never
  // allocate.  A context is used by one thread at a time.
  mutable std::vector<L> x_;    ///< input, 2k limbs
  mutable std::vector<L> q2_;   ///< q1 * mu, k+1+|mu| limbs
  mutable std::vector<L> q3m_;  ///< q3 * m, 2k+1 limbs
  mutable std::vector<L> rr_;   ///< k+1 limbs
};

}  // namespace wsp
