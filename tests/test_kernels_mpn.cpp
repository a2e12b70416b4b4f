// XR32 mpn kernels vs. the host mpn library: every routine, base form and
// every TIE width, on random inputs — and the performance ordering the A-D
// curves depend on (wider datapaths => fewer cycles).
#include <gtest/gtest.h>

#include "kernels/mpn_kernels.h"
#include "mp/mpn.h"
#include "support/random.h"

namespace wsp {
namespace {

using kernels::Machine;
using kernels::make_mpn_machine;
using kernels::MpnTieConfig;

std::vector<std::uint32_t> random_words(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = rng.next_u32();
  return v;
}

struct TieParam {
  MpnTieConfig tie;
  const char* label;
};

class MpnKernelTest : public ::testing::TestWithParam<TieParam> {
 protected:
  Machine machine_ = make_mpn_machine(GetParam().tie);
};

TEST_P(MpnKernelTest, AddNMatchesHost) {
  Rng rng(101);
  for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 31u, 32u, 33u}) {
    const auto a = random_words(rng, n);
    const auto b = random_words(rng, n);
    std::vector<std::uint32_t> expect(n), got;
    const std::uint32_t ec = mpn::add_n(expect.data(), a.data(), b.data(), n);
    const auto res = kernels::run_add_n(machine_, got, a, b);
    EXPECT_EQ(got, expect) << GetParam().label << " n=" << n;
    EXPECT_EQ(res.ret, ec) << GetParam().label << " n=" << n;
  }
}

TEST_P(MpnKernelTest, SubNMatchesHost) {
  Rng rng(102);
  for (std::size_t n : {1u, 4u, 9u, 16u, 30u}) {
    const auto a = random_words(rng, n);
    const auto b = random_words(rng, n);
    std::vector<std::uint32_t> expect(n), got;
    const std::uint32_t eb = mpn::sub_n(expect.data(), a.data(), b.data(), n);
    const auto res = kernels::run_sub_n(machine_, got, a, b);
    EXPECT_EQ(got, expect) << GetParam().label << " n=" << n;
    EXPECT_EQ(res.ret, eb);
  }
}

TEST_P(MpnKernelTest, AddmulMatchesHost) {
  Rng rng(103);
  for (std::size_t n : {1u, 2u, 5u, 8u, 13u, 16u, 32u, 37u}) {
    const auto a = random_words(rng, n);
    const std::uint32_t b = rng.next_u32();
    std::vector<std::uint32_t> rp = random_words(rng, n);
    std::vector<std::uint32_t> expect = rp;
    const std::uint32_t ec = mpn::addmul_1(expect.data(), a.data(), n, b);
    std::vector<std::uint32_t> got = rp;
    const auto res = kernels::run_addmul_1(machine_, got, a, b);
    EXPECT_EQ(got, expect) << GetParam().label << " n=" << n;
    EXPECT_EQ(res.ret, ec);
  }
}

TEST_P(MpnKernelTest, CarryChainsAcrossChunks) {
  // All-ones + 1 propagates a carry through every limb and chunk boundary.
  const std::size_t n = 24;
  std::vector<std::uint32_t> a(n, 0xffffffffu), b(n, 0);
  b[0] = 1;
  std::vector<std::uint32_t> got;
  const auto res = kernels::run_add_n(machine_, got, a, b);
  EXPECT_EQ(res.ret, 1u) << GetParam().label;
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], 0u) << i;
}

// gtest lists a parameter by its raw bytes, the label pointer included, and
// ctest takes that listing into each test's name. The labels therefore sit at
// fixed offsets in one 256-byte-aligned block: the pointer's low byte, and so
// the listed names, stay put however the binary's read-only data moves.
struct alignas(256) TieLabels {
  char lead[0x38];
  char base[5], add2[5], add4_mac1[10], add8_mac2[10], add16_mac4[11];
};
constexpr TieLabels kTieLabels{{}, "base", "add2", "add4_mac1", "add8_mac2", "add16_mac4"};

INSTANTIATE_TEST_SUITE_P(
    Widths, MpnKernelTest,
    ::testing::Values(TieParam{{0, 0}, kTieLabels.base}, TieParam{{2, 0}, kTieLabels.add2},
                      TieParam{{4, 1}, kTieLabels.add4_mac1},
                      TieParam{{8, 2}, kTieLabels.add8_mac2},
                      TieParam{{16, 4}, kTieLabels.add16_mac4}),
    [](const ::testing::TestParamInfo<TieParam>& info) { return info.param.label; });

class MpnBaseKernelTest : public ::testing::Test {
 protected:
  Machine machine_ = make_mpn_machine();
};

TEST_F(MpnBaseKernelTest, Mul1MatchesHost) {
  Rng rng(104);
  for (std::size_t n : {1u, 6u, 17u, 32u}) {
    const auto a = random_words(rng, n);
    const std::uint32_t b = rng.next_u32();
    std::vector<std::uint32_t> expect(n), got;
    const std::uint32_t ec = mpn::mul_1(expect.data(), a.data(), n, b);
    const auto res = kernels::run_mul_1(machine_, got, a, b);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(res.ret, ec);
  }
}

TEST_F(MpnBaseKernelTest, SubmulMatchesHost) {
  Rng rng(105);
  for (std::size_t n : {1u, 5u, 16u, 29u}) {
    const auto a = random_words(rng, n);
    const std::uint32_t b = rng.next_u32();
    std::vector<std::uint32_t> rp = random_words(rng, n);
    std::vector<std::uint32_t> expect = rp;
    const std::uint32_t eb = mpn::submul_1(expect.data(), a.data(), n, b);
    std::vector<std::uint32_t> got = rp;
    const auto res = kernels::run_submul_1(machine_, got, a, b);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(res.ret, eb);
  }
}

TEST_F(MpnBaseKernelTest, CmpMatchesHost) {
  Rng rng(106);
  for (int i = 0; i < 30; ++i) {
    const std::size_t n = 1 + rng.below(12);
    auto a = random_words(rng, n);
    auto b = rng.below(2) ? a : random_words(rng, n);
    const int expect = mpn::cmp(a.data(), b.data(), n);
    const auto res = kernels::run_cmp(machine_, a, b);
    EXPECT_EQ(static_cast<std::int32_t>(res.ret), expect);
  }
}

TEST_F(MpnBaseKernelTest, ShiftsMatchHost) {
  Rng rng(107);
  for (unsigned count : {1u, 7u, 16u, 31u}) {
    const std::size_t n = 11;
    const auto a = random_words(rng, n);
    std::vector<std::uint32_t> el(n), er(n), gl, gr;
    const std::uint32_t outl = mpn::lshift(el.data(), a.data(), n, count);
    const std::uint32_t outr = mpn::rshift(er.data(), a.data(), n, count);
    const auto rl = kernels::run_lshift(machine_, gl, a, count);
    const auto rr = kernels::run_rshift(machine_, gr, a, count);
    EXPECT_EQ(gl, el) << count;
    EXPECT_EQ(rl.ret, outl) << count;
    EXPECT_EQ(gr, er) << count;
    EXPECT_EQ(rr.ret, outr) << count;
  }
}

TEST_F(MpnBaseKernelTest, Div2by1MatchesHardwareDivision) {
  Rng rng(108);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t d = rng.next_u32() | 0x80000000u;  // normalized
    const std::uint32_t hi = static_cast<std::uint32_t>(rng.below(d));
    const std::uint32_t lo = rng.next_u32();
    const std::uint64_t u = (static_cast<std::uint64_t>(hi) << 32) | lo;
    const auto res = kernels::run_div_2by1(machine_, hi, lo, d);
    EXPECT_EQ(res.ret, static_cast<std::uint32_t>(u / d)) << i;
  }
}

TEST_F(MpnBaseKernelTest, DivremMatchesHost) {
  Rng rng(109);
  for (int i = 0; i < 40; ++i) {
    const std::size_t dn = 1 + rng.below(5);
    const std::size_t un = dn + rng.below(6);
    auto u = random_words(rng, un);
    auto d = random_words(rng, dn);
    d[dn - 1] |= 0x80000000u;  // kernel requires a normalized divisor
    std::vector<std::uint32_t> eq(un - dn + 1), er(dn);
    mpn::divrem(eq.data(), er.data(), u.data(), un, d.data(), dn);
    std::vector<std::uint32_t> gq, grem, umut = u;
    kernels::run_divrem_norm(machine_, gq, umut, d, grem);
    EXPECT_EQ(gq, eq) << "iter " << i;
    EXPECT_EQ(grem, er) << "iter " << i;
  }
}

TEST_F(MpnBaseKernelTest, MulMatchesHost) {
  Rng rng(110);
  for (int i = 0; i < 20; ++i) {
    const std::size_t an = 1 + rng.below(10);
    const std::size_t bn = 1 + rng.below(10);
    const auto a = random_words(rng, an);
    const auto b = random_words(rng, bn);
    std::vector<std::uint32_t> expect(an + bn), got;
    mpn::mul_basecase(expect.data(), a.data(), an, b.data(), bn);
    kernels::run_mul(machine_, got, a, b);
    EXPECT_EQ(got, expect) << "iter " << i;
  }
}

TEST(MpnBaseKernelStress, DivremAddBackMatchesHost) {
  // The crafted qhat-overshoot case (see test_mpn.cpp) must take the
  // kernel through its add-back loop and still match the host library.
  Machine m = make_mpn_machine();
  const std::vector<std::uint32_t> u = {0, 0, 0x40000000u};
  const std::vector<std::uint32_t> d = {0xFFFFFFFFu, 0x80000000u};
  std::vector<std::uint32_t> eq(2), er(2);
  mpn::divrem(eq.data(), er.data(), u.data(), 3, d.data(), 2);
  std::vector<std::uint32_t> gq, grem, umut = u;
  kernels::run_divrem_norm(m, gq, umut, d, grem);
  EXPECT_EQ(gq, eq);
  EXPECT_EQ(grem, er);
}

TEST(MpnBaseKernelStress, DivremQhatClampMatchesHost) {
  Machine m = make_mpn_machine();
  const std::vector<std::uint32_t> u = {5, 0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u};
  const std::vector<std::uint32_t> d = {1, 0x80000000u};
  std::vector<std::uint32_t> eq(3), er(2);
  mpn::divrem(eq.data(), er.data(), u.data(), 4, d.data(), 2);
  std::vector<std::uint32_t> gq, grem, umut = u;
  kernels::run_divrem_norm(m, gq, umut, d, grem);
  EXPECT_EQ(gq, eq);
  EXPECT_EQ(grem, er);
}

TEST(MpnBaseKernelStress, DivremHostileDivisorSweep) {
  // Divisors shaped to maximize estimate error: top limb just above B/2,
  // second limb saturated.
  Machine m = make_mpn_machine();
  Rng rng(114);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::uint32_t> d = {0xFFFFFFFFu,
                                    0x80000000u | static_cast<std::uint32_t>(rng.below(16))};
    const std::size_t un = 4 + rng.below(3);
    std::vector<std::uint32_t> u(un);
    for (auto& x : u) x = rng.below(4) ? 0xFFFFFFFFu : rng.next_u32();
    if (u[un - 1] >= d[1]) u[un - 1] = d[1] - 1;  // keep q within un-dn+1 limbs
    std::vector<std::uint32_t> eq(un - 1), er(2);
    mpn::divrem(eq.data(), er.data(), u.data(), un, d.data(), 2);
    std::vector<std::uint32_t> gq, grem, umut = u;
    kernels::run_divrem_norm(m, gq, umut, d, grem);
    EXPECT_EQ(gq, eq) << iter;
    EXPECT_EQ(grem, er) << iter;
  }
}

TEST(MpnKernelPerf, WiderAddersAreMonotonicallyFaster) {
  Rng rng(111);
  const std::size_t n = 32;
  const auto a = random_words(rng, n);
  const auto b = random_words(rng, n);
  std::uint64_t prev = ~0ull;
  for (int width : {0, 2, 4, 8, 16}) {
    Machine m = make_mpn_machine(MpnTieConfig{width, 0});
    std::vector<std::uint32_t> r;
    const auto res = kernels::run_add_n(m, r, a, b);
    EXPECT_LT(res.cycles, prev) << "width " << width;
    prev = res.cycles;
  }
}

TEST(MpnKernelPerf, WiderMacsAreMonotonicallyFaster) {
  Rng rng(112);
  const std::size_t n = 32;
  const auto a = random_words(rng, n);
  std::uint64_t prev = ~0ull;
  for (int width : {0, 1, 2, 4}) {
    Machine m = make_mpn_machine(MpnTieConfig{0, width});
    std::vector<std::uint32_t> r(n, 0), got = r;
    const auto res = kernels::run_addmul_1(m, got, a, 0x12345677u);
    EXPECT_LT(res.cycles, prev) << "width " << width;
    prev = res.cycles;
  }
}

TEST(MpnKernelPerf, CyclesScaleLinearlyWithN) {
  // The macro-modeling phase depends on clean linear profiles.
  Machine m = make_mpn_machine();
  Rng rng(113);
  std::vector<double> per_limb;
  for (std::size_t n : {8u, 16u, 32u, 64u}) {
    const auto a = random_words(rng, n);
    const auto b = random_words(rng, n);
    std::vector<std::uint32_t> r;
    const auto res = kernels::run_add_n(m, r, a, b);
    per_limb.push_back(static_cast<double>(res.cycles) / static_cast<double>(n));
  }
  for (std::size_t i = 1; i < per_limb.size(); ++i) {
    EXPECT_NEAR(per_limb[i], per_limb[0], 3.0) << i;
  }
}

}  // namespace
}  // namespace wsp
