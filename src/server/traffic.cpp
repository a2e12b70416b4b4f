#include "server/traffic.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace wsp::server {

namespace {

void check(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(std::string("traffic: ") + msg);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

std::vector<TrafficPhase> TrafficScenario::program() const {
  if (!phases.empty()) return phases;
  TrafficPhase ph;
  ph.sessions = sessions;
  ph.model = model;
  ph.offered_load = offered_load;
  ph.users = users;
  ph.think_cycles = think_cycles;
  ph.resume_fraction = resume_sessions ? 1.0 : 0.0;
  for (const ssl::Cipher c : ciphers) ph.cipher_mix.push_back({c, 1});
  for (const std::size_t bytes : transaction_sizes) {
    ph.size_mix.push_back({bytes, 1});
  }
  return {std::move(ph)};
}

std::size_t TrafficScenario::total_sessions() const {
  std::size_t total = 0;
  for (const TrafficPhase& ph : program()) total += ph.sessions;
  return total;
}

void TrafficScenario::validate() const {
  check(record_bytes > 0, "record_bytes must be > 0");
  for (const std::size_t bytes : transaction_sizes) {
    check(bytes > 0, "transaction sizes must be > 0");
  }
  for (const TrafficPhase& ph : program()) {
    check(ph.sessions > 0, "sessions must be > 0");
    check(!ph.cipher_mix.empty(), "empty cipher mix");
    check(!ph.size_mix.empty(), "empty transaction size mix");
    for (const CipherMix& m : ph.cipher_mix) {
      check(m.weight > 0, "cipher mix weights must be > 0");
    }
    for (const SizeMix& m : ph.size_mix) {
      check(m.bytes > 0, "transaction sizes must be > 0");
      check(m.weight > 0, "size mix weights must be > 0");
    }
    if (ph.model == ArrivalModel::kOpenLoop) {
      check(finite_positive(ph.offered_load),
            "offered_load must be finite and > 0");
    } else {
      check(ph.users > 0, "closed loop needs users > 0");
    }
    check(std::isfinite(ph.think_cycles) && ph.think_cycles >= 0.0,
          "think_cycles must be finite and >= 0");
    check(std::isfinite(ph.resume_fraction) && ph.resume_fraction >= 0.0 &&
              ph.resume_fraction <= 1.0,
          "resume_fraction must be in [0, 1]");
    if (ph.faults) ph.faults->validate();
  }
}

TrafficGenerator::TrafficGenerator(
    const TrafficScenario& scenario,
    const std::vector<double>& phase_mean_service_cycles,
    unsigned service_units)
    : phases_(scenario.program()),
      phase_mean_service_(phase_mean_service_cycles),
      service_units_(static_cast<double>(std::max(1u, service_units))),
      rng_(scenario.seed) {
  if (phase_mean_service_.size() != phases_.size()) {
    throw std::logic_error(
        "traffic: one mean service figure per phase is required");
  }
  scenario.validate();
  for (const TrafficPhase& ph : phases_) total_sessions_ += ph.sessions;
}

double TrafficGenerator::exp_draw(double mean) {
  if (mean <= 0.0) return 0.0;
  // Inverse-CDF with u in [0, 1); 1-u is in (0, 1] so log() is finite.
  return -mean * std::log(1.0 - rng_.next_double());
}

void TrafficGenerator::push_ready(double at, unsigned user) {
  st_.ready.emplace_back(at, user);
  std::push_heap(st_.ready.begin(), st_.ready.end(), std::greater<>());
}

void TrafficGenerator::enter_phase(std::size_t idx) {
  const TrafficPhase& ph = phases_[idx];
  st_.interarrival_mean =
      ph.model == ArrivalModel::kOpenLoop
          ? phase_mean_service_[idx] / (service_units_ * ph.offered_load)
          : 0.0;
  if (ph.model == ArrivalModel::kClosedLoop) {
    // A fresh population: leftover pending arrivals from an earlier closed
    // phase are dropped, and the new users' first arrivals are staggered
    // across one mean think (or service) interval from the current
    // virtual-clock cursor, so they don't all collide.
    st_.ready.clear();
    const double spread =
        ph.think_cycles > 0.0 ? ph.think_cycles : phase_mean_service_[idx];
    for (unsigned u = 0; u < ph.users; ++u) {
      push_ready(st_.open_clock + exp_draw(spread), u);
    }
  }
  st_.phase_entered = true;
}

template <class Mix>
const Mix& TrafficGenerator::pick_weighted(const std::vector<Mix>& mix) {
  // One Rng draw below the total weight; with unit weights the total is
  // mix.size() and the picked index is the drawn value itself, a uniform
  // `below(n)`.
  std::uint64_t total = 0;
  for (const Mix& m : mix) total += m.weight;
  std::uint64_t r = rng_.below(total);
  for (const Mix& m : mix) {
    if (r < m.weight) return m;
    r -= m.weight;
  }
  return mix.back();  // unreachable: r < total == sum(weights)
}

std::optional<SessionArrival> TrafficGenerator::next() {
  if (st_.next_id >= total_sessions_) return std::nullopt;
  SessionArrival a;
  while (st_.phase_done >= phases_[st_.phase_idx].sessions) {
    ++st_.phase_idx;
    st_.phase_done = 0;
    st_.phase_entered = false;
  }
  if (!st_.phase_entered) enter_phase(st_.phase_idx);
  const TrafficPhase& ph = phases_[st_.phase_idx];
  if (ph.model == ArrivalModel::kOpenLoop) {
    st_.open_clock += exp_draw(st_.interarrival_mean);
    a.at_cycles = st_.open_clock;
  } else {
    if (st_.ready.empty()) return std::nullopt;  // all users awaiting outcomes
    std::pop_heap(st_.ready.begin(), st_.ready.end(), std::greater<>());
    const auto [at, user] = st_.ready.back();
    st_.ready.pop_back();
    a.at_cycles = at;
    a.user = user;
    // Keep the cursor monotone so a following open phase resumes from the
    // latest arrival, not from before this phase ran.
    st_.open_clock = std::max(st_.open_clock, at);
  }
  a.id = st_.next_id++;
  ++st_.phase_done;
  a.phase = static_cast<std::uint32_t>(st_.phase_idx);
  a.cipher = pick_weighted(ph.cipher_mix).cipher;
  a.transaction_bytes = pick_weighted(ph.size_mix).bytes;
  a.session_seed = rng_.next_u64();
  // The resume coin consumes a draw ONLY for a genuinely mixed fraction:
  // all-full and all-resumed phases (every flat scenario) draw nothing.
  if (ph.resume_fraction >= 1.0) {
    a.resume = true;
  } else if (ph.resume_fraction > 0.0) {
    a.resume = rng_.next_double() < ph.resume_fraction;
  }
  return a;
}

TrafficGeneratorState TrafficGenerator::state() const {
  TrafficGeneratorState st = st_;
  st.rng = rng_.state();
  std::sort(st.ready.begin(), st.ready.end());
  return st;
}

void TrafficGenerator::restore(const TrafficGeneratorState& state) {
  st_ = state;  // an ascending `ready` is already a std::greater min-heap
  rng_.set_state(st_.rng);
  if (!st_.phase_entered && (st_.next_id > 0 || !st_.ready.empty())) {
    // A flat scenario recorded before it ran as a one-phase program: that
    // generator never entered its phase (phase_done stayed 0) and drew the
    // closed-loop stagger at construction.  Both already happened, so the
    // phase is entered with every arrival so far counted in it.  A program
    // state is never like this — next() enters the phase before it draws.
    st_.phase_done = st_.next_id;
    st_.phase_entered = true;
  }
}

void TrafficGenerator::on_outcome(const SessionArrival& arrival,
                                  double completion_cycles, bool dropped) {
  // Feedback only drives the arrival's own phase; once the program has
  // moved on, the user population it belonged to is gone.
  if (arrival.phase != st_.phase_idx) return;
  const TrafficPhase& ph = phases_[arrival.phase];
  if (ph.model != ArrivalModel::kClosedLoop) return;
  const double base = dropped ? arrival.at_cycles : completion_cycles;
  push_ready(base + exp_draw(ph.think_cycles), arrival.user);
}

}  // namespace wsp::server
