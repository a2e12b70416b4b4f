// Montgomery contexts: all three scanning variants, both radices, checked
// against the Mpz reference.
#include <gtest/gtest.h>

#include "mp/montgomery.h"
#include "mp/mpz.h"
#include "support/random.h"

namespace wsp {
namespace {

template <typename L>
std::vector<L> to_limbs(const Mpz& x, std::size_t k) {
  const auto bytes_needed = k * sizeof(L);
  auto be = x.to_bytes_be(bytes_needed);
  std::vector<std::uint8_t> le(be.rbegin(), be.rend());
  return mpn::from_bytes_le<L>(le.data(), le.size());
}

template <typename L>
Mpz from_limbs(const std::vector<L>& v) {
  std::vector<std::uint8_t> le(v.size() * sizeof(L));
  mpn::to_bytes_le(v.data(), v.size(), le.data(), le.size());
  std::vector<std::uint8_t> be(le.rbegin(), le.rend());
  return Mpz::from_bytes_be(be);
}

template <typename T>
class MontTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t>;
TYPED_TEST_SUITE(MontTest, LimbTypes);

TYPED_TEST(MontTest, RejectsEvenModulus) {
  using L = TypeParam;
  std::vector<L> even = {4, 1};
  EXPECT_THROW(Mont<L>{even}, std::invalid_argument);
}

TYPED_TEST(MontTest, N0InvProperty) {
  using L = TypeParam;
  // n0' = -n^{-1} mod B  =>  n0 * n0inv = -1 mod B.
  const Mpz m = Mpz::from_hex("f123456789abcdef123456789abcdef1");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  const L prod = static_cast<L>(ctx.modulus()[0] * ctx.n0inv());
  EXPECT_EQ(prod, static_cast<L>(~static_cast<L>(0)));
}

TYPED_TEST(MontTest, MulMatchesReferenceAllVariants) {
  using L = TypeParam;
  Rng rng(31);
  const Mpz m = Mpz::from_hex("c90fdaa22168c234c4c6628b80dc1cd1");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  for (MontVariant v : {MontVariant::kSOS, MontVariant::kCIOS, MontVariant::kFIOS}) {
    for (int i = 0; i < 25; ++i) {
      const Mpz a = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
      const Mpz b = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
      const auto am = ctx.to_mont(to_limbs<L>(a, k), v);
      const auto bm = ctx.to_mont(to_limbs<L>(b, k), v);
      std::vector<L> rm(k);
      ctx.mul(rm, am, bm, v);
      const Mpz r = from_limbs<L>(ctx.from_mont(rm, v));
      EXPECT_EQ(r, (a * b).mod(m)) << "variant " << static_cast<int>(v);
    }
  }
}

TYPED_TEST(MontTest, VariantsAgreeWithEachOther) {
  using L = TypeParam;
  Rng rng(32);
  const Mpz m = Mpz::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e5");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  const Mpz a = Mpz::from_bytes_be(rng.bytes(20)).mod(m);
  const Mpz b = Mpz::from_bytes_be(rng.bytes(20)).mod(m);
  const auto al = to_limbs<L>(a, k);
  const auto bl = to_limbs<L>(b, k);
  std::vector<L> sos(k), cios(k), fios(k);
  ctx.mul(sos, al, bl, MontVariant::kSOS);
  ctx.mul(cios, al, bl, MontVariant::kCIOS);
  ctx.mul(fios, al, bl, MontVariant::kFIOS);
  EXPECT_EQ(sos, cios);
  EXPECT_EQ(sos, fios);
}

TYPED_TEST(MontTest, ToFromMontRoundTrips) {
  using L = TypeParam;
  Rng rng(33);
  const Mpz m = Mpz::from_hex("ffdd2bd3499f1f25f3ed4c3b9e0e6401");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  for (int i = 0; i < 20; ++i) {
    const Mpz a = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
    const auto mont = ctx.to_mont(to_limbs<L>(a, k), MontVariant::kCIOS);
    EXPECT_EQ(from_limbs<L>(ctx.from_mont(mont, MontVariant::kCIOS)), a);
  }
}

TYPED_TEST(MontTest, InterleavedContextsKeepPrivateScratch) {
  // Two contexts of different sizes alternate on one thread: each keeps its
  // own accumulator, so neither sees the other's limbs.
  using L = TypeParam;
  Rng rng(34);
  const Mpz m_small = Mpz::from_hex("c90fdaa22168c234c4c6628b80dc1cd1");
  const Mpz m_large = Mpz::from_hex(
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
      "d4c3b2a190887766554433221100ffeeddccbbaa99887766554433221100ff13");
  constexpr std::size_t kLimbBits = mpn::LimbTraits<L>::bits;
  const std::size_t ks = (m_small.bit_length() + kLimbBits - 1) / kLimbBits;
  const std::size_t kl = (m_large.bit_length() + kLimbBits - 1) / kLimbBits;
  Mont<L> small(to_limbs<L>(m_small, ks));
  Mont<L> large(to_limbs<L>(m_large, kl));
  // base^exp mod m by square-and-multiply through one context.
  auto powm = [](const Mont<L>& ctx, const Mpz& base, const Mpz& exp,
                 std::size_t k, MontVariant v) {
    std::vector<L> one(k, 0);
    one[0] = 1;
    std::vector<L> acc = ctx.to_mont(one, v);
    const std::vector<L> g = ctx.to_mont(to_limbs<L>(base, k), v);
    std::vector<L> tmp(k);
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      ctx.mul(tmp, acc, acc, v);
      acc.swap(tmp);
      if (exp.bits(i, 1)) {
        ctx.mul(tmp, acc, g, v);
        acc.swap(tmp);
      }
    }
    return from_limbs<L>(ctx.from_mont(acc, v));
  };
  for (MontVariant v : {MontVariant::kSOS, MontVariant::kCIOS, MontVariant::kFIOS}) {
    for (int i = 0; i < 4; ++i) {
      const Mpz e = Mpz::from_bytes_be(rng.bytes(8));
      const Mpz bl = Mpz::from_bytes_be(rng.bytes(64)).mod(m_large);
      const Mpz bs = Mpz::from_bytes_be(rng.bytes(16)).mod(m_small);
      EXPECT_EQ(powm(large, bl, e, kl, v), Mpz::powm(bl, e, m_large));
      EXPECT_EQ(powm(small, bs, e, ks, v), Mpz::powm(bs, e, m_small));
    }
  }
}

TEST(MontHook, ReportsAddmulEvents) {
  struct Counter : CostHook {
    std::size_t addmuls = 0;
    void on_prim(Prim p, std::size_t, std::size_t, unsigned) override {
      if (p == Prim::kAddMul1) ++addmuls;
    }
  } counter;
  const Mpz m = Mpz::from_hex("f0000000000000000000000000000001");
  Mont<std::uint32_t> ctx(to_limbs<std::uint32_t>(m, 4));
  ctx.set_hook(&counter);
  std::vector<std::uint32_t> r(4), a = {1, 2, 3, 4}, b = {5, 6, 7, 8};
  ctx.mul(r, a, b, MontVariant::kCIOS);
  // CIOS does 2 addmul_1 sweeps per limb of b.
  EXPECT_EQ(counter.addmuls, 8u);
}

}  // namespace
}  // namespace wsp
