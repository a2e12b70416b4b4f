// Property tests of the mpn kernels, for both radix options, checked
// against 64-bit arithmetic and against each other.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mp/mpn.h"
#include "support/random.h"

namespace wsp {
namespace {

template <typename L>
std::vector<L> random_limbs(Rng& rng, std::size_t n) {
  std::vector<L> v(n);
  for (auto& x : v) x = static_cast<L>(rng.next_u64());
  return v;
}

template <typename T>
class MpnTypedTest : public ::testing::Test {};

using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t>;
TYPED_TEST_SUITE(MpnTypedTest, LimbTypes);

TYPED_TEST(MpnTypedTest, AddThenSubRoundTrips) {
  using L = TypeParam;
  Rng rng(7);
  for (std::size_t n : {1u, 2u, 5u, 16u, 33u}) {
    const auto a = random_limbs<L>(rng, n);
    const auto b = random_limbs<L>(rng, n);
    std::vector<L> sum(n), back(n);
    const L carry = mpn::add_n(sum.data(), a.data(), b.data(), n);
    const L borrow = mpn::sub_n(back.data(), sum.data(), b.data(), n);
    EXPECT_EQ(back, a) << "n=" << n;
    EXPECT_EQ(carry, borrow) << "n=" << n;  // wrap symmetric
  }
}

TYPED_TEST(MpnTypedTest, AddIsCommutative) {
  using L = TypeParam;
  Rng rng(8);
  const std::size_t n = 24;
  const auto a = random_limbs<L>(rng, n);
  const auto b = random_limbs<L>(rng, n);
  std::vector<L> r1(n), r2(n);
  const L c1 = mpn::add_n(r1.data(), a.data(), b.data(), n);
  const L c2 = mpn::add_n(r2.data(), b.data(), a.data(), n);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(c1, c2);
}

TYPED_TEST(MpnTypedTest, Mul1MatchesAddmul1OnZeroTarget) {
  using L = TypeParam;
  Rng rng(9);
  const std::size_t n = 17;
  const auto a = random_limbs<L>(rng, n);
  const L b = static_cast<L>(rng.next_u64() | 1);
  std::vector<L> r1(n), r2(n, 0);
  const L c1 = mpn::mul_1(r1.data(), a.data(), n, b);
  const L c2 = mpn::addmul_1(r2.data(), a.data(), n, b);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(c1, c2);
}

TYPED_TEST(MpnTypedTest, AddmulThenSubmulCancels) {
  using L = TypeParam;
  Rng rng(10);
  const std::size_t n = 20;
  const auto a = random_limbs<L>(rng, n);
  const auto base = random_limbs<L>(rng, n);
  const L b = static_cast<L>(rng.next_u64());
  std::vector<L> r = base;
  const L c1 = mpn::addmul_1(r.data(), a.data(), n, b);
  const L c2 = mpn::submul_1(r.data(), a.data(), n, b);
  EXPECT_EQ(r, base);
  EXPECT_EQ(c1, c2);
}

TYPED_TEST(MpnTypedTest, KaratsubaMatchesBasecase) {
  using L = TypeParam;
  Rng rng(11);
  for (std::size_t n : {16u, 32u, 48u, 64u}) {
    const auto a = random_limbs<L>(rng, n);
    const auto b = random_limbs<L>(rng, n);
    std::vector<L> r1(2 * n), r2(2 * n);
    mpn::mul_basecase(r1.data(), a.data(), n, b.data(), n);
    mpn::mul_karatsuba(r2.data(), a.data(), b.data(), n);
    EXPECT_EQ(r1, r2) << "n=" << n;
  }
}

TYPED_TEST(MpnTypedTest, KaratsubaReusesWorkspaceAcrossSizes) {
  // 16/32/64/128 limbs recurse 1..4 levels deep.  All calls on this thread
  // share one grow-only workspace: descending sizes reuse a larger buffer
  // than needed, ascending sizes grow it between calls.  All-ones operands
  // drive every carry and borrow of the middle-term assembly.
  using L = TypeParam;
  Rng rng(14);
  for (const auto& order : {std::vector<std::size_t>{128, 64, 32, 16},
                            std::vector<std::size_t>{16, 32, 64, 128}}) {
    for (std::size_t n : order) {
      const std::vector<L> ones(n, static_cast<L>(~L{0}));
      for (const auto& [a, b] : {std::pair{random_limbs<L>(rng, n), random_limbs<L>(rng, n)},
                                 std::pair{ones, ones}}) {
        std::vector<L> r1(2 * n), r2(2 * n);
        mpn::mul_basecase(r1.data(), a.data(), n, b.data(), n);
        mpn::mul_karatsuba(r2.data(), a.data(), b.data(), n);
        EXPECT_EQ(r1, r2) << "n=" << n;
      }
    }
  }
}

TYPED_TEST(MpnTypedTest, ShiftRoundTrip) {
  using L = TypeParam;
  Rng rng(12);
  const std::size_t n = 9;
  for (unsigned count = 1; count < mpn::LimbTraits<L>::bits; ++count) {
    auto a = random_limbs<L>(rng, n);
    a[n - 1] = static_cast<L>(a[n - 1] >> count);  // headroom so no bits lost
    std::vector<L> up(n), back(n);
    mpn::lshift(up.data(), a.data(), n, count);
    mpn::rshift(back.data(), up.data(), n, count);
    EXPECT_EQ(back, a) << "count=" << count;
  }
}

TYPED_TEST(MpnTypedTest, DivremReconstructs) {
  using L = TypeParam;
  Rng rng(13);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t dn = 1 + rng.below(6);
    const std::size_t un = dn + rng.below(8);
    auto u = random_limbs<L>(rng, un);
    auto d = random_limbs<L>(rng, dn);
    if (d[dn - 1] == 0) d[dn - 1] = 1;
    std::vector<L> q(un - dn + 1), r(dn);
    mpn::divrem(q.data(), r.data(), u.data(), un, d.data(), dn);
    // Check u == q*d + r and r < d.
    std::vector<L> qd(q.size() + dn, 0);
    mpn::mul_basecase(qd.data(), q.data(), q.size(), d.data(), dn);
    std::vector<L> sum(un + 2, 0);
    for (std::size_t i = 0; i < qd.size() && i < sum.size(); ++i) sum[i] = qd[i];
    L carry = mpn::add_n(sum.data(), sum.data(), r.data(), dn);
    mpn::add_1(sum.data() + dn, sum.data() + dn, sum.size() - dn, carry);
    EXPECT_EQ(mpn::cmp2(sum.data(), sum.size(), u.data(), un), 0) << "iter=" << iter;
    EXPECT_LT(mpn::cmp2(r.data(), dn, d.data(), dn), 1);
    EXPECT_EQ(mpn::cmp2(r.data(), dn, d.data(), dn) < 0, true);
  }
}

TYPED_TEST(MpnTypedTest, DivremLargeThenSmallReusesWorkspace) {
  // A large division grows the per-thread workspace; a smaller one after it
  // must not see the stale limbs left behind.
  using L = TypeParam;
  Rng rng(15);
  for (const auto& [un, dn] : {std::pair<std::size_t, std::size_t>{129, 64},
                               {9, 4}, {65, 32}, {3, 2}}) {
    const auto u = random_limbs<L>(rng, un);
    auto d = random_limbs<L>(rng, dn);
    d[dn - 1] = static_cast<L>(d[dn - 1] | 1);
    std::vector<L> q(un - dn + 1), r(dn);
    mpn::divrem(q.data(), r.data(), u.data(), un, d.data(), dn);
    std::vector<L> back(un + 1, 0);
    mpn::mul_basecase(back.data(), q.data(), q.size(), d.data(), dn);
    const L carry = mpn::add_n(back.data(), back.data(), r.data(), dn);
    mpn::add_1(back.data() + dn, back.data() + dn, back.size() - dn, carry);
    EXPECT_EQ(mpn::cmp2(back.data(), back.size(), u.data(), un), 0) << "un=" << un;
    EXPECT_LT(mpn::cmp2(r.data(), dn, d.data(), dn), 0) << "un=" << un;
  }
}

TYPED_TEST(MpnTypedTest, BitLength) {
  using L = TypeParam;
  std::vector<L> v(3, 0);
  EXPECT_EQ(mpn::bit_length(v.data(), 3), 0u);
  v[0] = 1;
  EXPECT_EQ(mpn::bit_length(v.data(), 3), 1u);
  v[2] = 1;
  EXPECT_EQ(mpn::bit_length(v.data(), 3), 2 * mpn::LimbTraits<L>::bits + 1);
}

TYPED_TEST(MpnTypedTest, CmpOrdersCorrectly) {
  using L = TypeParam;
  std::vector<L> a = {1, 2, 3};
  std::vector<L> b = {2, 2, 3};
  EXPECT_EQ(mpn::cmp(a.data(), b.data(), 3), -1);
  EXPECT_EQ(mpn::cmp(b.data(), a.data(), 3), 1);
  EXPECT_EQ(mpn::cmp(a.data(), a.data(), 3), 0);
}

TYPED_TEST(MpnTypedTest, BytesRoundTrip) {
  using L = TypeParam;
  Rng rng(14);
  const auto bytes = rng.bytes(23);
  const auto limbs = mpn::from_bytes_le<L>(bytes.data(), bytes.size());
  std::vector<std::uint8_t> back(23);
  mpn::to_bytes_le(limbs.data(), limbs.size(), back.data(), back.size());
  EXPECT_EQ(back, bytes);
}

TEST(Mpn, DivremAddBackPath) {
  // Crafted so the initial qhat estimate overshoots by one
  // (u = 2^94, d = 2^63 + 2^32 - 1): exercises Knuth-D's add-back
  // correction, which random inputs essentially never reach.
  const std::vector<std::uint32_t> u = {0, 0, 0x40000000u};
  const std::vector<std::uint32_t> d = {0xFFFFFFFFu, 0x80000000u};
  std::vector<std::uint32_t> q(2), r(2);
  mpn::divrem(q.data(), r.data(), u.data(), 3, d.data(), 2);
  EXPECT_EQ(q[0], 0x7FFFFFFFu);
  EXPECT_EQ(q[1], 0u);
  // Reconstruct.
  std::vector<std::uint32_t> qd(4, 0);
  mpn::mul_basecase(qd.data(), q.data(), 2, d.data(), 2);
  std::uint32_t carry = mpn::add_n(qd.data(), qd.data(), r.data(), 2);
  mpn::add_1(qd.data() + 2, qd.data() + 2, 2, carry);
  EXPECT_EQ(mpn::cmp2(qd.data(), 4, u.data(), 3), 0);
}

TEST(Mpn, DivremQhatClampPath) {
  // Top remainder limb equal to the top divisor limb forces the
  // qhat = B-1 clamp.
  const std::vector<std::uint32_t> u = {5, 0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u};
  const std::vector<std::uint32_t> d = {1, 0x80000000u};
  std::vector<std::uint32_t> q(3), r(2);
  mpn::divrem(q.data(), r.data(), u.data(), 4, d.data(), 2);
  std::vector<std::uint32_t> qd(5, 0);
  mpn::mul_basecase(qd.data(), q.data(), 3, d.data(), 2);
  std::uint32_t carry = mpn::add_n(qd.data(), qd.data(), r.data(), 2);
  mpn::add_1(qd.data() + 2, qd.data() + 2, 3, carry);
  EXPECT_EQ(mpn::cmp2(qd.data(), 5, u.data(), 4), 0);
  EXPECT_LT(mpn::cmp2(r.data(), 2, d.data(), 2), 0);
}

TEST(Mpn, Clz) {
  EXPECT_EQ(mpn::clz<std::uint32_t>(1u), 31u);
  EXPECT_EQ(mpn::clz<std::uint32_t>(0x80000000u), 0u);
  EXPECT_EQ(mpn::clz<std::uint16_t>(std::uint16_t{1}), 15u);
}

}  // namespace
}  // namespace wsp
