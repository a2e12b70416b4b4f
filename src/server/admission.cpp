#include "server/admission.h"

#include <algorithm>
#include <string>

#include "server/checkpoint.h"
#include "support/trace.h"

namespace wsp::server {

namespace {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double price_one(const ssl::PlatformCosts& costs, std::size_t bytes,
                 bool resumed) {
  return resumed ? ssl::resumed_transaction_cost(costs, bytes).total()
                 : ssl::transaction_cost(costs, bytes).total();
}

/// Mean service cycles of each phase: its size mix's weighted average,
/// blended across the resume fraction (exactly one side at 0 or 1).
std::vector<double> phase_means(const ssl::PlatformCosts& price,
                                const std::vector<TrafficPhase>& phases) {
  std::vector<double> means;
  means.reserve(phases.size());
  for (const TrafficPhase& ph : phases) {
    double full = 0.0, resumed = 0.0;
    std::uint64_t wsum = 0;
    for (const SizeMix& m : ph.size_mix) {
      const double w = static_cast<double>(m.weight);
      full += price_one(price, m.bytes, false) * w;
      resumed += price_one(price, m.bytes, true) * w;
      wsum += m.weight;
    }
    full /= static_cast<double>(wsum);
    resumed /= static_cast<double>(wsum);
    const double f = ph.resume_fraction;
    means.push_back(f <= 0.0   ? full
                    : f >= 1.0 ? resumed
                               : (1.0 - f) * full + f * resumed);
  }
  return means;
}

/// Bounded exponential backoff after the i-th failed handshake attempt
/// (virtual cycles).
double backoff_cycles(const FaultConfig& fc, unsigned attempt) {
  double b = fc.backoff_base_cycles;
  for (unsigned i = 0; i < attempt && b < fc.backoff_cap_cycles; ++i) b *= 2.0;
  return std::min(b, fc.backoff_cap_cycles);
}

/// Virtual-timeline service time for one session under its fault schedule.
/// This is a queueing MODEL of the recovery machinery, not a cycle-accurate
/// replay of it: what matters is that it is a pure function of the schedule
/// (hence identical for any --threads) and moves in the right direction —
/// failed handshakes add asymmetric work plus backoff, wire flips add a
/// retransmission surcharge, a poisoned record truncates the stream after
/// the doomed repair ladder, a stall adds dead time.
double modeled_service(const ssl::PlatformCosts& price, std::size_t bytes,
                       std::size_t record_bytes, const FaultSchedule& f,
                       const FaultConfig& fc, bool resume) {
  double service = 0.0;
  // A failed full exchange pays both asymmetric operations before the
  // premaster check rejects it; a failed resumption only burns the
  // abbreviated protocol work (the ticket is rejected before any key
  // exchange).  Either way the backoff follows.
  const double failed_attempt_cycles =
      resume ? 0.25 * price.handshake_misc_cycles
             : price.rsa_private_cycles + price.rsa_public_cycles;
  const unsigned failures =
      std::min(f.handshake_failures, fc.handshake_retry_budget + 1);
  for (unsigned i = 0; i < failures; ++i) {
    service += failed_attempt_cycles;
    service += backoff_cycles(fc, i);
  }
  if (f.handshake_failures > fc.handshake_retry_budget) {
    return service;  // aborted before any record moved
  }
  double body = price_one(price, bytes, resume);
  if (f.wire_flip_rate > 0.0) {
    body *= 1.0 + f.wire_flip_rate;  // retransmission surcharge
  }
  if (f.abort_scheduled) {
    const std::uint64_t total_records =
        std::max<std::uint64_t>(1, (bytes + record_bytes - 1) / record_bytes);
    const double per_record = body / static_cast<double>(total_records);
    const double done = std::min<double>(static_cast<double>(f.abort_record),
                                         static_cast<double>(total_records));
    // Stream up to the poisoned record, then the full (losing) repair
    // ladder: budgeted retransmits, one rekey, one last retransmit.
    body = done * per_record +
           static_cast<double>(f.record_retry_budget + 2) * per_record;
  }
  service += body;
  if (f.stall_scheduled) service += f.stall_cycles;
  return service;
}

}  // namespace

AdmissionModel::AdmissionModel(const EngineConfig& config,
                               const TrafficScenario& scenario)
    : config_(config),
      record_bytes_(scenario.record_bytes),
      price_(calibrated_costs(config.pricing)),
      base_(calibrated_costs(Pricing::kBase)),
      opt_(calibrated_costs(Pricing::kOptimized)),
      phases_(scenario.program()),
      phase_means_(phase_means(price_, phases_)),
      crash_at_(config.faults.crash_at_cycles),
      snapshot_(config.checkpoint_sink != nullptr &&
                config.checkpoint_every > 0.0),
      gen_(scenario, phase_means_, config.shards),  // validates the scenario
      vq_(config.shards) {
  if (config_.shards == 0) {
    throw std::logic_error("server: admission needs a resolved shard count");
  }
  // Fault plans: the engine-wide plan, or a phase's .wsp overlay (rekey
  // storms, adversarial floods).  Every plan keys off the scenario seed, so
  // schedules stay pure in (seed, session id) whichever phase a session
  // lands in.  The crash deadline is the earliest one armed anywhere.
  for (const TrafficPhase& ph : phases_) {
    const FaultConfig& fc = ph.faults ? *ph.faults : config_.faults;
    phase_plans_.emplace_back(fc, scenario.seed);
    if (fc.crash_at_cycles > 0.0 &&
        (crash_at_ <= 0.0 || fc.crash_at_cycles < crash_at_)) {
      crash_at_ = fc.crash_at_cycles;
    }
  }
  rep_.shards.resize(config_.shards);
  // One phase reports exactly its own figure (no weighting round trip); a
  // longer program reports the session-weighted mean.
  if (phases_.size() == 1) {
    rep_.mean_service_cycles = phase_means_[0];
  } else {
    double acc = 0.0;
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      acc += phase_means_[i] * static_cast<double>(phases_[i].sessions);
    }
    rep_.mean_service_cycles =
        acc / static_cast<double>(scenario.total_sessions());
  }
}

std::optional<SessionArrival> AdmissionModel::next() {
  if (snapshot_) pre_draw_ = gen_.state();
  return gen_.next();
}

Admission AdmissionModel::admission(const SessionArrival& arrival) const {
  Admission a;
  a.session.id = arrival.id;
  a.session.cipher = arrival.cipher;
  a.session.transaction_bytes = arrival.transaction_bytes;
  a.session.record_bytes = record_bytes_;
  a.session.seed = arrival.session_seed;
  a.session.faults = phase_plans_[arrival.phase].schedule_for(arrival.id);
  a.shard = static_cast<unsigned>(arrival.id % config_.shards);
  a.resume = arrival.resume;
  a.handshake_budget =
      phase_plans_[arrival.phase].config().handshake_retry_budget;
  a.batch = degraded_ ? std::max<std::size_t>(1, config_.record_batch / 2)
                      : config_.record_batch;
  return a;
}

std::optional<Admission> AdmissionModel::offer(const SessionArrival& arrival) {
  const double now = arrival.at_cycles;
  ++rep_.offered;
  // Evict every shard up to this arrival so the in-system count — the
  // degrade-mode signal and the peak_sessions source — is exact, not the
  // lazily-evicted per-shard view.
  std::size_t in_system = 0;
  for (VirtualShard& other : vq_) {
    std::vector<double>& q = other.completions;
    q.erase(q.begin(), std::find_if(q.begin(), q.end(),
                                    [now](double at) { return at > now; }));
    in_system += q.size();
  }
  // Degrade mode with hysteresis: engage at degrade_depth, release only
  // once the system has drained to half of it.
  const std::size_t depth = config_.degrade_depth;
  if (depth > 0 && !degraded_ && in_system >= depth) {
    degraded_ = true;
    ++rep_.degrade_enters;
    WSP_TRACE_INSTANT_V("server", "degrade/enter",
                        static_cast<double>(in_system));
  } else if (depth > 0 && degraded_ && in_system <= depth / 2) {
    degraded_ = false;
    WSP_TRACE_INSTANT_V("server", "degrade/exit",
                        static_cast<double>(in_system));
  }

  const unsigned shard = static_cast<unsigned>(arrival.id % config_.shards);
  VirtualShard& v = vq_[shard];
  ShardReport& sh = rep_.shards[shard];
  const std::size_t capacity = config_.queue_capacity;
  const std::size_t room =
      degraded_ ? std::max<std::size_t>(1, capacity / 2) : capacity;
  if (v.completions.size() >= room) {
    ++sh.dropped;
    if (degraded_ && v.completions.size() < capacity) {
      ++rep_.shed;  // would have been admitted at full capacity
    }
    WSP_TRACE_INSTANT("server", "drop/shard" + std::to_string(shard));
    gen_.on_outcome(arrival, now, /*dropped=*/true);
    return std::nullopt;
  }

  Admission a = admission(arrival);
  const FaultSchedule& f = a.session.faults;
  if (f.stall_scheduled) {
    WSP_TRACE_INSTANT_V("server.fault", "stall/shard" + std::to_string(shard),
                        f.stall_cycles);
  }
  const double completion =
      std::max(v.busy_until, now) +
      modeled_service(price_, arrival.transaction_bytes, record_bytes_, f,
                      phase_plans_[arrival.phase].config(), a.resume);
  v.busy_until = completion;
  v.completions.push_back(completion);
  ++sh.admitted;
  sh.peak_virtual_depth = std::max(sh.peak_virtual_depth, v.completions.size());
  rep_.peak_sessions = std::max(rep_.peak_sessions, in_system + 1);
  latencies_.push_back(completion - now);
  rep_.makespan_cycles = std::max(rep_.makespan_cycles, completion);
  rep_.platform_cycles_base +=
      price_one(base_, arrival.transaction_bytes, a.resume);
  rep_.platform_cycles_optimized +=
      price_one(opt_, arrival.transaction_bytes, a.resume);
  gen_.on_outcome(arrival, completion, /*dropped=*/false);
  return a;
}

RunReport AdmissionModel::report() const {
  RunReport rep = rep_;
  rep.sum_shards();
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  rep.latency.p50 = quantile(sorted, 0.50);
  rep.latency.p90 = quantile(sorted, 0.90);
  rep.latency.p99 = quantile(sorted, 0.99);
  rep.latency.max = sorted.empty() ? 0.0 : sorted.back();
  for (const ShardReport& sh : rep.shards) {
    rep.peak_virtual_depth =
        std::max(rep.peak_virtual_depth, sh.peak_virtual_depth);
  }
  if (rep.platform_cycles_optimized > 0.0) {
    rep.equivalent_speedup =
        rep.platform_cycles_base / rep.platform_cycles_optimized;
  }
  return rep;
}

template <class Model, class Checkpoint, class Copy>
void AdmissionModel::map_checkpoint(Model& m, Checkpoint& cp, Copy copy) {
  copy(m.rep_.offered, cp.offered);
  copy(m.rep_.shed, cp.shed);
  copy(m.rep_.degrade_enters, cp.degrade_enters);
  copy(m.degraded_, cp.degraded);
  copy(m.rep_.makespan_cycles, cp.makespan_cycles);
  copy(m.rep_.peak_sessions, cp.peak_sessions);
  copy(m.rep_.platform_cycles_base, cp.platform_cycles_base);
  copy(m.rep_.platform_cycles_optimized, cp.platform_cycles_optimized);
  for (std::size_t s = 0; s < m.vq_.size(); ++s) {
    copy(m.vq_[s].busy_until, cp.shards[s].busy_until);
    copy(m.vq_[s].completions, cp.shards[s].completions);
    copy(m.rep_.shards[s].admitted, cp.shards[s].admitted);
    copy(m.rep_.shards[s].dropped, cp.shards[s].dropped);
    copy(m.rep_.shards[s].peak_virtual_depth, cp.shards[s].peak_virtual_depth);
  }
  copy(m.latencies_, cp.latencies);
  copy(m.pre_draw_, cp.generator);
}

void AdmissionModel::capture(EngineCheckpoint& cp) const {
  cp.shards.resize(vq_.size());
  map_checkpoint(*this, cp, [](const auto& model, auto& stored) {
    stored = model;
  });
}

void AdmissionModel::restore(const EngineCheckpoint& cp) {
  // A misfit is a programming error here: untrusted traces are checked,
  // typed, by server/record.h's resume path before they get this far.
  const std::string misfit = checkpoint_misfit(cp, phases_, config_.shards);
  if (!misfit.empty()) {
    throw std::logic_error("server: checkpoint does not fit this run: " +
                           misfit);
  }
  map_checkpoint(*this, cp, [](auto& model, const auto& stored) {
    model = stored;
  });
  gen_.restore(pre_draw_);
}

}  // namespace wsp::server
