// Montgomery modular multiplication contexts.
//
// Two of the paper's five candidate modular-multiplication algorithms are
// Montgomery variants; we implement SOS (separated operand scanning: full
// product followed by Montgomery reduction) and CIOS (coarsely integrated
// operand scanning), plus FIOS as an extension used in ablations.
// All variants are templated on the limb type to cover both radix options.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mp/cost.h"
#include "mp/mpn.h"

namespace wsp {

enum class MontVariant { kSOS, kCIOS, kFIOS };

/// Montgomery context for an odd modulus of `n` limbs.
/// Values inside the Montgomery domain are n-limb vectors < modulus.
template <typename L>
class Mont {
 public:
  using W = typename mpn::LimbTraits<L>::Wide;
  static constexpr int kBits = mpn::LimbTraits<L>::bits;

  /// Builds the context: computes n0' = -n^{-1} mod B and R^2 mod n.
  /// Throws std::invalid_argument for an even or zero modulus.
  explicit Mont(std::vector<L> modulus, CostHook* hook = nullptr)
      : n_(std::move(modulus)), hook_(hook) {
    n_.resize(mpn::normalize(n_.data(), n_.size()));
    if (n_.empty() || (n_[0] & 1) == 0) {
      throw std::invalid_argument("Mont: modulus must be odd and non-zero");
    }
    // Newton iteration for the inverse of n mod B (widened arithmetic: the
    // narrow limb type would promote to int and overflow).
    W inv = 1;
    for (int i = 0; i < 6; ++i) {  // 2^6 = 64 >= limb bits; converges quadratically
      inv = inv * (2 - static_cast<W>(n_[0]) * inv);
    }
    n0inv_ = static_cast<L>(0) - static_cast<L>(inv);  // -n^{-1} mod B

    // R^2 mod n by 2*n*kBits doublings of 1 (context setup; counted by the
    // caching axis of the design space, not the per-multiplication cost).
    const std::size_t nn = n_.size();
    std::vector<L> acc(nn, 0);
    acc[0] = 1;
    reduce_once(acc);
    for (std::size_t i = 0; i < 2 * nn * static_cast<std::size_t>(kBits); ++i) {
      // acc = 2*acc mod n
      const L carry = mpn::lshift(acc.data(), acc.data(), nn, 1);
      note(Prim::kLshift, nn);
      if (carry || mpn::cmp(acc.data(), n_.data(), nn) >= 0) {
        mpn::sub_n(acc.data(), acc.data(), n_.data(), nn);
        note(Prim::kSubN, nn);
      }
      note(Prim::kCmp, nn);
    }
    r2_ = std::move(acc);
    t_.resize(2 * nn + 1);
  }

  std::size_t limbs() const { return n_.size(); }
  const std::vector<L>& modulus() const { return n_; }
  L n0inv() const { return n0inv_; }
  const std::vector<L>& r2() const { return r2_; }
  void set_hook(CostHook* hook) { hook_ = hook; }

  /// rp = a * b * R^{-1} mod n, all n-limb Montgomery-domain values.
  void mul(std::vector<L>& rp, const std::vector<L>& a, const std::vector<L>& b,
           MontVariant v) const {
    switch (v) {
      case MontVariant::kSOS: mul_sos(rp, a, b); break;
      case MontVariant::kCIOS: mul_cios(rp, a, b); break;
      case MontVariant::kFIOS: mul_fios(rp, a, b); break;
    }
  }

  /// Converts into the Montgomery domain: a*R mod n.
  std::vector<L> to_mont(const std::vector<L>& a, MontVariant v) const {
    std::vector<L> r(n_.size());
    mul(r, a, r2_, v);
    return r;
  }

  /// Converts out of the Montgomery domain: a*R^{-1} mod n.
  std::vector<L> from_mont(const std::vector<L>& a, MontVariant v) const {
    std::vector<L> one(n_.size(), 0);
    one[0] = 1;
    std::vector<L> r(n_.size());
    mul(r, a, one, v);
    return r;
  }

 private:
  void note(Prim p, std::size_t n, std::size_t m = 0) const {
    if (hook_) hook_->on_prim(p, n, m, static_cast<unsigned>(kBits));
  }

  // The first `len` limbs of the accumulator scratch, zeroed.
  L* zeroed_scratch(std::size_t len) const {
    std::fill(t_.begin(), t_.begin() + static_cast<std::ptrdiff_t>(len), L{0});
    return t_.data();
  }

  // acc (n limbs) reduced mod n in place (acc may be >= n but < 2^(n*kBits)).
  void reduce_once(std::vector<L>& acc) const {
    if (mpn::cmp(acc.data(), n_.data(), n_.size()) >= 0) {
      mpn::sub_n(acc.data(), acc.data(), n_.data(), n_.size());
    }
  }

  // SOS: t = a*b, then n Montgomery reduction sweeps, then conditional sub.
  void mul_sos(std::vector<L>& rp, const std::vector<L>& a,
               const std::vector<L>& b) const {
    const std::size_t nn = n_.size();
    L* t = zeroed_scratch(2 * nn + 1);
    for (std::size_t j = 0; j < nn; ++j) {
      t[nn + j] = mpn::addmul_1(t + j, a.data(), nn, b[j]);
      note(Prim::kAddMul1, nn);
    }
    for (std::size_t i = 0; i < nn; ++i) {
      const L m = static_cast<L>(t[i] * n0inv_);
      const L carry = mpn::addmul_1(t + i, n_.data(), nn, m);
      note(Prim::kAddMul1, nn);
      // Propagate the carry limb into the upper part.
      mpn::add_1(t + i + nn, t + i + nn, nn + 1 - i, carry);
      note(Prim::kAdd1, nn - i);
    }
    rp.assign(t + nn, t + 2 * nn);
    if (t[2 * nn] || mpn::cmp(rp.data(), n_.data(), nn) >= 0) {
      mpn::sub_n(rp.data(), rp.data(), n_.data(), nn);
      note(Prim::kSubN, nn);
    }
    note(Prim::kCmp, nn);
  }

  // CIOS: alternate one multiplication sweep and one reduction sweep per
  // limb of b, keeping a short (n+2)-limb accumulator.
  void mul_cios(std::vector<L>& rp, const std::vector<L>& a,
                const std::vector<L>& b) const {
    const std::size_t nn = n_.size();
    L* t = zeroed_scratch(nn + 2);
    for (std::size_t i = 0; i < nn; ++i) {
      // t += a * b[i]
      L carry = mpn::addmul_1(t, a.data(), nn, b[i]);
      note(Prim::kAddMul1, nn);
      W s = static_cast<W>(t[nn]) + carry;
      t[nn] = static_cast<L>(s);
      t[nn + 1] = static_cast<L>(t[nn + 1] + static_cast<L>(s >> kBits));
      // t += m * n, then shift one limb.
      const L m = static_cast<L>(t[0] * n0inv_);
      carry = mpn::addmul_1(t, n_.data(), nn, m);
      note(Prim::kAddMul1, nn);
      s = static_cast<W>(t[nn]) + carry;
      t[nn] = static_cast<L>(s);
      t[nn + 1] = static_cast<L>(t[nn + 1] + static_cast<L>(s >> kBits));
      // t[0] is now zero by construction of m; shift down.
      for (std::size_t k = 0; k < nn + 1; ++k) t[k] = t[k + 1];
      t[nn + 1] = 0;
    }
    rp.assign(t, t + nn);
    if (t[nn] || mpn::cmp(rp.data(), n_.data(), nn) >= 0) {
      mpn::sub_n(rp.data(), rp.data(), n_.data(), nn);
      note(Prim::kSubN, nn);
    }
    note(Prim::kCmp, nn);
  }

  // FIOS: single fused pass per limb of b — multiplication and reduction
  // interleaved at limb granularity.
  void mul_fios(std::vector<L>& rp, const std::vector<L>& a,
                const std::vector<L>& b) const {
    const std::size_t nn = n_.size();
    L* t = zeroed_scratch(nn + 2);
    for (std::size_t i = 0; i < nn; ++i) {
      // First column decides m for this sweep.
      W sum = static_cast<W>(t[0]) + static_cast<W>(a[0]) * b[i];
      const L m = static_cast<L>(static_cast<L>(sum) * n0inv_);
      W carry_ab = sum >> kBits;
      W lowfix = static_cast<W>(static_cast<L>(sum)) + static_cast<W>(n_[0]) * m;
      W carry_mn = lowfix >> kBits;
      for (std::size_t j = 1; j < nn; ++j) {
        const W v = static_cast<W>(t[j]) + static_cast<W>(a[j]) * b[i] + carry_ab;
        carry_ab = v >> kBits;
        const W w = static_cast<W>(static_cast<L>(v)) + static_cast<W>(n_[j]) * m + carry_mn;
        carry_mn = w >> kBits;
        t[j - 1] = static_cast<L>(w);
      }
      const W top = static_cast<W>(t[nn]) + carry_ab + carry_mn;
      t[nn - 1] = static_cast<L>(top);
      t[nn] = static_cast<L>(top >> kBits) + t[nn + 1];
      t[nn + 1] = 0;
      // Cost model: one fused sweep does the work of two addmul_1 passes.
      note(Prim::kAddMul1, nn);
      note(Prim::kAddMul1, nn);
    }
    rp.assign(t, t + nn);
    if (t[nn] || mpn::cmp(rp.data(), n_.data(), nn) >= 0) {
      mpn::sub_n(rp.data(), rp.data(), n_.data(), nn);
      note(Prim::kSubN, nn);
    }
    note(Prim::kCmp, nn);
  }

  std::vector<L> n_;
  L n0inv_ = 0;
  std::vector<L> r2_;
  CostHook* hook_ = nullptr;
  // Accumulator for mul_*, sized once (2n+1 limbs) so a multiplication
  // never allocates.  A context is used by one thread at a time.
  mutable std::vector<L> t_;
};

}  // namespace wsp
