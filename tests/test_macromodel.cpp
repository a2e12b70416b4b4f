// Regression fitting + ISS-driven characterization of the mpn routines.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "macromodel/characterize.h"
#include "macromodel/regression.h"

namespace wsp {
namespace {

using macromodel::CharacterizeOptions;
using macromodel::fit;
using macromodel::FitQuality;
using macromodel::MacroModelSet;
using macromodel::Monomial;
using macromodel::PolyModel;

TEST(Regression, RecoversExactLinearModel) {
  std::vector<std::vector<double>> features;
  std::vector<double> cycles;
  for (int n = 1; n <= 40; ++n) {
    features.push_back({static_cast<double>(n), 0.0});
    cycles.push_back(17.0 + 12.5 * n);
  }
  FitQuality q;
  const PolyModel model = fit(features, cycles, {{0, 0}, {1, 0}}, &q);
  EXPECT_NEAR(model.coeffs()[0], 17.0, 1e-6);
  EXPECT_NEAR(model.coeffs()[1], 12.5, 1e-6);
  EXPECT_GT(q.r2, 0.9999);
  EXPECT_LT(q.mae_pct, 0.01);
}

TEST(Regression, RecoversQuadraticModel) {
  std::vector<std::vector<double>> features;
  std::vector<double> cycles;
  for (int n = 1; n <= 30; ++n) {
    features.push_back({static_cast<double>(n)});
    cycles.push_back(5.0 + 2.0 * n + 0.75 * n * n);
  }
  const PolyModel model = fit(features, cycles, {{0}, {1}, {2}});
  EXPECT_NEAR(model.coeffs()[2], 0.75, 1e-6);
  EXPECT_NEAR(model.evaluate({10.0}), 5.0 + 20.0 + 75.0, 1e-6);
}

TEST(Regression, CrossTermModel) {
  // cycles = 3*n*m sampled over a grid.
  std::vector<std::vector<double>> features;
  std::vector<double> cycles;
  for (int n = 1; n <= 8; ++n) {
    for (int m = 1; m <= 8; ++m) {
      features.push_back({static_cast<double>(n), static_cast<double>(m)});
      cycles.push_back(3.0 * n * m);
    }
  }
  const PolyModel model = fit(features, cycles, {{0, 0}, {1, 1}});
  EXPECT_NEAR(model.coeffs()[1], 3.0, 1e-6);
}

TEST(Regression, ToStringShowsTerms) {
  const PolyModel model({{0, 0}, {1, 0}}, {10.0, 2.0});
  const std::string s = model.to_string({"n", "m"});
  EXPECT_NE(s.find("10"), std::string::npos);
  EXPECT_NE(s.find("*n"), std::string::npos);
}

TEST(Regression, RejectsBadDimensions) {
  EXPECT_THROW(fit({{1.0}}, {1.0, 2.0}, {{0}}), std::invalid_argument);
  EXPECT_THROW(fit({}, {}, {{0}}), std::invalid_argument);
}

class CharacterizeTest : public ::testing::Test {
 protected:
  static const MacroModelSet& models() {
    static const MacroModelSet set = [] {
      kernels::Machine machine = kernels::make_mpn_machine();
      CharacterizeOptions options;
      options.sizes = {2, 4, 8, 16, 24, 32};
      return macromodel::characterize_mpn(machine, options);
    }();
    return set;
  }
};

TEST_F(CharacterizeTest, AllRoutinesCharacterized) {
  for (Prim p : {Prim::kAddN, Prim::kSubN, Prim::kMul1, Prim::kAddMul1,
                 Prim::kSubMul1, Prim::kCmp, Prim::kLshift, Prim::kRshift,
                 Prim::kDiv2by1}) {
    EXPECT_TRUE(models().has(p, 32)) << prim_name(p);
    EXPECT_TRUE(models().has(p, 16)) << prim_name(p);
  }
}

TEST_F(CharacterizeTest, FitsAreTight) {
  // The kernels are deterministic loops, so linear fits should be near-exact.
  for (Prim p : {Prim::kAddN, Prim::kAddMul1, Prim::kSubMul1}) {
    const auto& rm = models().get(p, 32);
    EXPECT_GT(rm.quality.r2, 0.999) << prim_name(p);
    EXPECT_LT(rm.quality.mae_pct, 5.0) << prim_name(p);
  }
}

TEST_F(CharacterizeTest, PredictionsInterpolate) {
  // Predict a size that was not in the characterization sweep and compare
  // against a real ISS run.
  kernels::Machine machine = kernels::make_mpn_machine();
  Rng rng(401);
  const std::size_t n = 20;  // not in {2,4,8,16,24,32}
  std::vector<std::uint32_t> a(n), b(n), r;
  for (auto& x : a) x = rng.next_u32();
  for (auto& x : b) x = rng.next_u32();
  const auto res = kernels::run_add_n(machine, r, a, b);
  const double predicted = models().cycles(Prim::kAddN, n, 0, 32);
  EXPECT_NEAR(predicted, static_cast<double>(res.cycles),
              0.05 * static_cast<double>(res.cycles));
}

TEST_F(CharacterizeTest, AddmulCostsMoreThanAdd) {
  EXPECT_GT(models().cycles(Prim::kAddMul1, 32, 0, 32),
            models().cycles(Prim::kAddN, 32, 0, 32));
}

TEST_F(CharacterizeTest, DescribeListsRoutines) {
  const std::string desc = models().describe();
  EXPECT_NE(desc.find("mpn_addmul_1"), std::string::npos);
  EXPECT_NE(desc.find("R^2"), std::string::npos);
}

TEST(CharacterizeTie, TieModelsPredictFewerCycles) {
  CharacterizeOptions options;
  options.sizes = {8, 16, 32};
  kernels::Machine base = kernels::make_mpn_machine();
  kernels::Machine tie = kernels::make_mpn_machine(kernels::MpnTieConfig{8, 4});
  const auto base_models = macromodel::characterize_mpn(base, options);
  const auto tie_models = macromodel::characterize_mpn(tie, options);
  EXPECT_LT(tie_models.cycles(Prim::kAddN, 32, 0, 32),
            base_models.cycles(Prim::kAddN, 32, 0, 32));
  EXPECT_LT(tie_models.cycles(Prim::kAddMul1, 32, 0, 32),
            base_models.cycles(Prim::kAddMul1, 32, 0, 32));
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// cycles() must be exactly the model's own evaluate({n, m}), whether it is
// served from the precomputed table (m == 0, n <= kTableLimbs) or falls back
// to evaluating the polynomial.
void expect_cycles_match_models(const MacroModelSet& set, const MacroModelSet& ref) {
  std::size_t rows = 0;
  for (int pi = 0; pi < static_cast<int>(Prim::kCount); ++pi) {
    const auto p = static_cast<Prim>(pi);
    for (unsigned bits : {16u, 32u}) {
      if (!ref.has(p, bits)) continue;
      ++rows;
      const PolyModel& model = ref.get(p, bits).model;
      for (std::size_t n = 0; n <= MacroModelSet::kTableLimbs + 8; ++n) {
        for (std::size_t m : {0u, 1u, 3u, 64u}) {
          const double want =
              model.evaluate({static_cast<double>(n), static_cast<double>(m)});
          ASSERT_EQ(bits_of(set.cycles(p, n, m, bits)), bits_of(want))
              << prim_name(p) << "@" << bits << " n=" << n << " m=" << m;
        }
      }
    }
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(CharacterizeTest, SerializationRoundTrips) {
  const std::string text = models().serialize();
  const auto restored = macromodel::MacroModelSet::deserialize(text);
  // deserialize() rebuilds the cost table through set(): every cycles()
  // answer, tabulated or not, must match the original model bit for bit.
  expect_cycles_match_models(restored, models());
  EXPECT_EQ(restored.serialize(), text);
}

TEST_F(CharacterizeTest, CostTableMatchesModelsBitForBit) {
  expect_cycles_match_models(models(), models());
}

TEST(MacroModelSet, CostTableCoversCrossTermsAndReplacement) {
  // A model with an n*m term and a constant: m != 0 must take the model's
  // value, not the tabulated m == 0 one.
  MacroModelSet set;
  set.set(Prim::kDivrem, 32, {PolyModel({{0, 0}, {1, 0}, {1, 1}}, {7.0, 2.5, 0.125}), {}});
  EXPECT_EQ(set.cycles(Prim::kDivrem, 40, 0, 32), 7.0 + 2.5 * 40);
  EXPECT_EQ(set.cycles(Prim::kDivrem, 40, 8, 32), 7.0 + 2.5 * 40 + 0.125 * 40 * 8);
  // Re-setting a routine replaces its tabulated costs.
  set.set(Prim::kDivrem, 32, {PolyModel({{0, 0}}, {3.0}), {}});
  EXPECT_EQ(set.cycles(Prim::kDivrem, 40, 0, 32), 3.0);
  EXPECT_EQ(set.cycles(Prim::kDivrem, MacroModelSet::kTableLimbs + 1, 0, 32), 3.0);
}

TEST(MacroModelSet, DeserializeRejectsGarbage) {
  EXPECT_THROW(macromodel::MacroModelSet::deserialize("1 32"), std::invalid_argument);
  EXPECT_THROW(macromodel::MacroModelSet::deserialize("x y z"), std::invalid_argument);
  // Empty input yields an empty (but valid) set.
  const auto empty = macromodel::MacroModelSet::deserialize("");
  EXPECT_FALSE(empty.has(Prim::kAddN, 32));
}

TEST(MacroModelSet, UnknownRoutineThrows) {
  MacroModelSet set;
  EXPECT_THROW(set.cycles(Prim::kAddN, 4, 0, 32), std::out_of_range);
  // With one routine characterized, every other lookup still throws:
  // another routine, the other radix, a radix without a table row, and the
  // m != 0 and oversize fallbacks past the cost table.
  set.set(Prim::kAddN, 32, {PolyModel({{0, 0}, {1, 0}}, {4.0, 1.0}), {}});
  EXPECT_EQ(set.cycles(Prim::kAddN, 4, 0, 32), 8.0);
  EXPECT_THROW(set.cycles(Prim::kSubN, 4, 0, 32), std::out_of_range);
  EXPECT_THROW(set.cycles(Prim::kAddN, 4, 0, 16), std::out_of_range);
  EXPECT_THROW(set.cycles(Prim::kAddN, 4, 0, 24), std::out_of_range);
  EXPECT_THROW(set.cycles(Prim::kSubN, 4, 2, 32), std::out_of_range);
  EXPECT_THROW(set.cycles(Prim::kSubN, MacroModelSet::kTableLimbs + 1, 0, 32),
               std::out_of_range);
}

}  // namespace
}  // namespace wsp
