#include <gtest/gtest.h>

#include "mp/barrett.h"
#include "mp/mpz.h"
#include "support/random.h"

namespace wsp {
namespace {

template <typename L>
std::vector<L> to_limbs(const Mpz& x, std::size_t k) {
  auto be = x.to_bytes_be(k * sizeof(L));
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
class BarrettTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t>;
TYPED_TEST_SUITE(BarrettTest, LimbTypes);

TYPED_TEST(BarrettTest, RejectsZeroModulus) {
  using L = TypeParam;
  std::vector<L> zero(3, 0);
  EXPECT_THROW(Barrett<L>{zero}, std::invalid_argument);
}

TYPED_TEST(BarrettTest, ReduceMatchesReference) {
  using L = TypeParam;
  Rng rng(41);
  // Works for even moduli too, unlike Montgomery.
  for (const char* mh : {"f7d8a9b3c2e1f4a5d6b7c8d9eaf1b2c4",
                         "b1946ac92492d2347c6235b4d2611184",
                         "8f14e45fceea167a5a36dedd4bea2543"}) {
    const Mpz m = Mpz::from_hex(mh);
    const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                          mpn::LimbTraits<L>::bits;
    Barrett<L> ctx(to_limbs<L>(m, k));
    for (int i = 0; i < 30; ++i) {
      const Mpz x = Mpz::from_bytes_be(rng.bytes(2 * 16 - 1));  // < B^2k
      std::vector<L> r(k);
      const auto xl = to_limbs<L>(x, 2 * k);
      ctx.reduce(r, xl);
      EXPECT_EQ(from_limbs<L>(r), x.mod(m)) << mh << " iter " << i;
    }
  }
}

TYPED_TEST(BarrettTest, MulmodMatchesReference) {
  using L = TypeParam;
  Rng rng(42);
  const Mpz m = Mpz::from_hex("d4c3b2a190887766554433221100ffef");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Barrett<L> ctx(to_limbs<L>(m, k));
  for (int i = 0; i < 40; ++i) {
    const Mpz a = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
    const Mpz b = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
    std::vector<L> r(k);
    ctx.mulmod(r, to_limbs<L>(a, k), to_limbs<L>(b, k));
    EXPECT_EQ(from_limbs<L>(r), (a * b).mod(m)) << "iter " << i;
  }
}

TYPED_TEST(BarrettTest, InterleavedContextsKeepPrivateScratch) {
  // Two contexts of different sizes alternate on one thread (at radix 16 the
  // 496-bit one has k = 31, so its 32 x 32-limb q1*mu product recurses in
  // Karatsuba): each keeps its own scratch, so neither sees the other's limbs.
  using L = TypeParam;
  Rng rng(43);
  const Mpz m_small = Mpz::from_hex("b1946ac92492d2347c6235b4d2611184");
  const Mpz m_large = Mpz::from_hex(
      "f7d8a9b3c2e1f4a5d6b7c8d9eaf1b2c48f14e45fceea167a5a36dedd4bea2543"
      "d4c3b2a190887766554433221100ffeeddccbbaa99887766554433221100");
  constexpr std::size_t kLimbBits = mpn::LimbTraits<L>::bits;
  const std::size_t ks = (m_small.bit_length() + kLimbBits - 1) / kLimbBits;
  const std::size_t kl = (m_large.bit_length() + kLimbBits - 1) / kLimbBits;
  Barrett<L> small(to_limbs<L>(m_small, ks));
  Barrett<L> large(to_limbs<L>(m_large, kl));
  auto powm = [](const Barrett<L>& ctx, const Mpz& base, const Mpz& exp,
                 std::size_t k) {
    std::vector<L> acc(k, 0);
    acc[0] = 1;
    const std::vector<L> g = to_limbs<L>(base, k);
    std::vector<L> tmp(k);
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      ctx.mulmod(tmp, acc, acc);
      acc.swap(tmp);
      if (exp.bits(i, 1)) {
        ctx.mulmod(tmp, acc, g);
        acc.swap(tmp);
      }
    }
    return from_limbs<L>(acc);
  };
  for (int i = 0; i < 6; ++i) {
    const Mpz e = Mpz::from_bytes_be(rng.bytes(8));
    const Mpz bl = Mpz::from_bytes_be(rng.bytes(64)).mod(m_large);
    const Mpz bs = Mpz::from_bytes_be(rng.bytes(16)).mod(m_small);
    EXPECT_EQ(powm(large, bl, e, kl), Mpz::powm(bl, e, m_large));
    EXPECT_EQ(powm(small, bs, e, ks), Mpz::powm(bs, e, m_small));
    // reduce() with a short input reuses the same scratch as mulmod().
    const Mpz x = Mpz::from_bytes_be(rng.bytes(40));
    std::vector<L> r(kl);
    large.reduce(r, to_limbs<L>(x, (x.bit_length() + kLimbBits - 1) / kLimbBits));
    EXPECT_EQ(from_limbs<L>(r), x.mod(m_large));
  }
}

TYPED_TEST(BarrettTest, ReduceOfSmallValueIsIdentity) {
  using L = TypeParam;
  const Mpz m = Mpz::from_hex("10000000000000000000000000000061");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Barrett<L> ctx(to_limbs<L>(m, k));
  const Mpz x(12345);
  std::vector<L> r(k);
  ctx.reduce(r, to_limbs<L>(x, 2 * k));
  EXPECT_EQ(from_limbs<L>(r), x);
}

}  // namespace
}  // namespace wsp
