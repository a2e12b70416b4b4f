// Macro-model registry: one fitted PolyModel per (library routine, radix),
// with the per-routine fit quality from characterization.  This is the
// artifact the algorithm-exploration phase consumes instead of the ISS.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "macromodel/regression.h"
#include "mp/cost.h"

namespace wsp::macromodel {

struct RoutineModel {
  PolyModel model;     ///< features: (n, m) in limbs
  FitQuality quality;  ///< characterization fit quality
};

class MacroModelSet {
 public:
  /// Largest primary operand size, in limbs, whose cost is precomputed: the
  /// 2k+1-limb divrem of an RSA-4096 modulus at radix 16 (k = 256).
  static constexpr std::size_t kTableLimbs = 513;

  void set(Prim p, unsigned limb_bits, RoutineModel model);
  bool has(Prim p, unsigned limb_bits) const;
  const RoutineModel& get(Prim p, unsigned limb_bits) const;

  /// Predicted cycles for one primitive invocation: exactly
  /// get(p, limb_bits).model.evaluate({n, m}).  Throws std::out_of_range
  /// for an uncharacterized routine.  This is called once per primitive
  /// event of a native estimate, so the common case (m == 0, n within
  /// kTableLimbs, radix 16 or 32) is one load from a table that set()
  /// fills with the model's own values.
  double cycles(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) const {
    const std::size_t r = row_of(p, limb_bits);
    if (m == 0 && r < table_.size() && n < table_[r].size()) return table_[r][n];
    return evaluate(p, n, m, limb_bits);
  }

  /// Multi-line summary: routine, model formula, R^2, MAE%.
  std::string describe() const;

  /// Text serialization — characterization is a one-time cost per hardware
  /// configuration, so model sets can be persisted and reloaded.
  std::string serialize() const;
  static MacroModelSet deserialize(const std::string& text);

 private:
  static constexpr std::size_t kPrims = static_cast<std::size_t>(Prim::kCount);

  /// Row of table_ for (p, limb_bits), or 2*kPrims when there is none.
  static std::size_t row_of(Prim p, unsigned limb_bits) {
    const auto i = static_cast<std::size_t>(p);
    if (i >= kPrims || (limb_bits != 16 && limb_bits != 32)) return 2 * kPrims;
    return 2 * i + (limb_bits == 32);
  }
  double evaluate(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) const;

  std::map<std::pair<int, unsigned>, RoutineModel> models_;
  /// table_[2*prim + (limb_bits == 32)][n] = model.evaluate({n, 0}) for
  /// n <= kTableLimbs; a row stays empty until its routine is characterized.
  std::array<std::vector<double>, 2 * kPrims> table_;
};

}  // namespace wsp::macromodel
