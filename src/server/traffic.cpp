#include "server/traffic.h"

#include <algorithm>
#include <cmath>
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
      rng_(scenario.seed),
      phase_mean_service_(phase_mean_service_cycles),
      service_units_(static_cast<double>(std::max(1u, service_units))) {
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

void TrafficGenerator::enter_phase(std::size_t idx) {
  const TrafficPhase& ph = phases_[idx];
  interarrival_mean_ =
      ph.model == ArrivalModel::kOpenLoop
          ? phase_mean_service_[idx] / (service_units_ * ph.offered_load)
          : 0.0;
  if (ph.model == ArrivalModel::kClosedLoop) {
    // A fresh population: leftover pending arrivals from an earlier closed
    // phase are dropped, and the new users' first arrivals are staggered
    // across one mean think (or service) interval from the current
    // virtual-clock cursor, so they don't all collide.
    ready_ = {};
    const double spread =
        ph.think_cycles > 0.0 ? ph.think_cycles : phase_mean_service_[idx];
    for (unsigned u = 0; u < ph.users; ++u) {
      ready_.emplace(open_clock_ + exp_draw(spread), u);
    }
  }
  phase_entered_ = true;
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
  if (next_id_ >= total_sessions_) return std::nullopt;
  SessionArrival a;
  while (phase_done_ >= phases_[phase_idx_].sessions) {
    ++phase_idx_;
    phase_done_ = 0;
    phase_entered_ = false;
  }
  if (!phase_entered_) enter_phase(phase_idx_);
  const TrafficPhase& ph = phases_[phase_idx_];
  if (ph.model == ArrivalModel::kOpenLoop) {
    open_clock_ += exp_draw(interarrival_mean_);
    a.at_cycles = open_clock_;
  } else {
    if (ready_.empty()) return std::nullopt;  // all users awaiting outcomes
    const auto [at, user] = ready_.top();
    ready_.pop();
    a.at_cycles = at;
    a.user = user;
    // Keep the cursor monotone so a following open phase resumes from the
    // latest arrival, not from before this phase ran.
    open_clock_ = std::max(open_clock_, at);
  }
  a.id = next_id_++;
  ++phase_done_;
  a.phase = static_cast<std::uint32_t>(phase_idx_);
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
  TrafficGeneratorState st;
  st.rng = rng_.state();
  st.next_id = next_id_;
  st.interarrival_mean = interarrival_mean_;
  st.open_clock = open_clock_;
  st.phase_idx = phase_idx_;
  st.phase_done = phase_done_;
  st.phase_entered = phase_entered_;
  // Drain a copy of the heap so the snapshot lists pending arrivals in
  // ascending (time, user) order — a canonical form, so two snapshots of
  // the same logical state compare equal byte for byte.
  auto pending = ready_;
  st.ready.reserve(pending.size());
  while (!pending.empty()) {
    st.ready.push_back(pending.top());
    pending.pop();
  }
  return st;
}

void TrafficGenerator::restore(const TrafficGeneratorState& state) {
  rng_.set_state(state.rng);
  next_id_ = state.next_id;
  interarrival_mean_ = state.interarrival_mean;
  open_clock_ = state.open_clock;
  phase_idx_ = static_cast<std::size_t>(state.phase_idx);
  phase_done_ = static_cast<std::size_t>(state.phase_done);
  phase_entered_ = state.phase_entered;
  ready_ = {};
  for (const auto& pending : state.ready) ready_.push(pending);
  if (!phase_entered_ && (next_id_ > 0 || !ready_.empty())) {
    // A flat scenario recorded before it ran as a one-phase program: that
    // generator never entered its phase (phase_done stayed 0) and drew the
    // closed-loop stagger at construction.  Both already happened, so the
    // phase is entered with every arrival so far counted in it.  A program
    // state is never like this — next() enters the phase before it draws.
    phase_done_ = static_cast<std::size_t>(next_id_);
    phase_entered_ = true;
  }
}

void TrafficGenerator::on_outcome(const SessionArrival& arrival,
                                  double completion_cycles, bool dropped) {
  // Feedback only drives the arrival's own phase; once the program has
  // moved on, the user population it belonged to is gone.
  if (arrival.phase != phase_idx_) return;
  const TrafficPhase& ph = phases_[arrival.phase];
  if (ph.model != ArrivalModel::kClosedLoop) return;
  const double base = dropped ? arrival.at_cycles : completion_cycles;
  ready_.emplace(base + exp_draw(ph.think_cycles), arrival.user);
}

}  // namespace wsp::server
