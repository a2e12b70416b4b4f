#include "macromodel/models.h"

#include <sstream>
#include <stdexcept>

namespace wsp::macromodel {

void MacroModelSet::set(Prim p, unsigned limb_bits, RoutineModel model) {
  RoutineModel& stored = models_[{static_cast<int>(p), limb_bits}];
  stored = std::move(model);
  const std::size_t r = row_of(p, limb_bits);
  if (r == table_.size()) return;
  std::vector<double>& row = table_[r];
  row.resize(kTableLimbs + 1);
  for (std::size_t n = 0; n <= kTableLimbs; ++n) {
    row[n] = stored.model.evaluate({static_cast<double>(n), 0.0});
  }
}

bool MacroModelSet::has(Prim p, unsigned limb_bits) const {
  return models_.count({static_cast<int>(p), limb_bits}) != 0;
}

const RoutineModel& MacroModelSet::get(Prim p, unsigned limb_bits) const {
  const auto it = models_.find({static_cast<int>(p), limb_bits});
  if (it == models_.end()) {
    throw std::out_of_range(std::string("MacroModelSet: no model for ") +
                            prim_name(p) + " @" + std::to_string(limb_bits));
  }
  return it->second;
}

double MacroModelSet::evaluate(Prim p, std::size_t n, std::size_t m,
                               unsigned limb_bits) const {
  return get(p, limb_bits)
      .model.evaluate({static_cast<double>(n), static_cast<double>(m)});
}

std::string MacroModelSet::describe() const {
  std::ostringstream os;
  for (const auto& [key, rm] : models_) {
    os << prim_name(static_cast<Prim>(key.first)) << " @" << key.second
       << "-bit: cycles = " << rm.model.to_string({"n", "m"})
       << "   (R^2=" << rm.quality.r2 << ", MAE=" << rm.quality.mae_pct
       << "%, samples=" << rm.quality.samples << ")\n";
  }
  return os.str();
}

std::string MacroModelSet::serialize() const {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [key, rm] : models_) {
    os << key.first << " " << key.second << " " << rm.model.basis().size();
    for (std::size_t t = 0; t < rm.model.basis().size(); ++t) {
      const auto& mono = rm.model.basis()[t];
      os << " " << mono.size();
      for (unsigned e : mono) os << " " << e;
      os << " " << rm.model.coeffs()[t];
    }
    os << " " << rm.quality.r2 << " " << rm.quality.mae_pct << " "
       << rm.quality.samples << "\n";
  }
  return os.str();
}

MacroModelSet MacroModelSet::deserialize(const std::string& text) {
  MacroModelSet set;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    int prim = 0;
    unsigned bits = 0;
    std::size_t terms = 0;
    if (!(ls >> prim >> bits >> terms)) {
      throw std::invalid_argument("MacroModelSet: malformed header line");
    }
    std::vector<Monomial> basis;
    std::vector<double> coeffs;
    for (std::size_t t = 0; t < terms; ++t) {
      std::size_t nf = 0;
      if (!(ls >> nf)) throw std::invalid_argument("MacroModelSet: malformed term");
      Monomial mono(nf);
      for (auto& e : mono) {
        if (!(ls >> e)) throw std::invalid_argument("MacroModelSet: malformed exponent");
      }
      double c = 0;
      if (!(ls >> c)) throw std::invalid_argument("MacroModelSet: malformed coefficient");
      basis.push_back(std::move(mono));
      coeffs.push_back(c);
    }
    RoutineModel rm;
    rm.model = PolyModel(std::move(basis), std::move(coeffs));
    if (!(ls >> rm.quality.r2 >> rm.quality.mae_pct >> rm.quality.samples)) {
      throw std::invalid_argument("MacroModelSet: malformed quality fields");
    }
    set.set(static_cast<Prim>(prim), bits, std::move(rm));
  }
  return set;
}

}  // namespace wsp::macromodel
