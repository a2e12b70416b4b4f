// The wsp-replay-v1 codec of the run-state field lists.  Every struct with a
// static for_each_field (SessionEvent, ShardReport, RunReport and
// EngineConfig in engine.h, FaultConfig in faults.h, ssl::PlatformCosts,
// TrafficScenario, TrafficPhase, CipherMix, SizeMix and
// TrafficGeneratorState in traffic.h, EngineCheckpoint and CheckpointShard
// in checkpoint.h) is encoded and decoded by walking that list, so the list
// order is the wire order and a listed field needs no codec edit of its own.
//
// Per field type:
//
//   unsigned integer        varint
//   bool                    0/1 varint
//   enum                    its value as a varint, at most the last
//                           enumerator (Pricing, ArrivalModel, ssl::Cipher)
//   double                  IEEE-754 bits
//   std::string             length, then the bytes
//   Rng::State              its four words as varints
//   (double, u32) pair      the double, then the u32 (a pending arrival)
//   listed struct           its own fields inline
//   optional listed struct  a 0/1 flag, then its fields when 1
//   vector of unsigned      count, then each value as the zigzag delta from
//                           the one before (an ascending sequence: sizes)
//   vector of sessions      count, then per element its key (id delta,
//                           shard) and the rest (SessionEvent: its outcome
//                           fields; CheckpointEntry: checkpoint.cpp)
//   any other vector        count, then its elements
//
// Decoding is strict: a value that does not fit its field's type, a flag
// other than 0 or 1, an unknown enumerator, a negative value after delta
// decoding, or a count larger than the bytes left is ReplayError(kMalformed)
// at the field's byte offset; nothing is truncated, clamped or reserved
// from an unchecked count.  What a value means (a zero size, a NaN time, a
// shard count) is not the decoder's business: each struct's validator
// checks that.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "server/engine.h"
#include "support/random.h"
#include "support/replay.h"

namespace wsp::server {

struct CheckpointEntry;  // server/checkpoint.h

template <class T>
concept FieldListed = requires(T& t) {
  T::for_each_field([](const char*, auto&) {}, t);
};

template <class T>
inline constexpr bool kVector = false;
template <class T>
inline constexpr bool kVector<std::vector<T>> = true;

/// Vectors coded as id-ascending session streams.
template <class T>
inline constexpr bool kSessionVector =
    std::is_same_v<T, std::vector<SessionEvent>> ||
    std::is_same_v<T, std::vector<CheckpointEntry>>;

/// The last enumerator of each coded enum: a larger value is kMalformed.
constexpr Pricing last_enumerator(Pricing) { return Pricing::kOptimized; }
constexpr ArrivalModel last_enumerator(ArrivalModel) {
  return ArrivalModel::kClosedLoop;
}
constexpr ssl::Cipher last_enumerator(ssl::Cipher) { return ssl::Cipher::kRc4; }

/// Number of leading list entries every payload carries: S::kV1Fields when
/// the struct has trailing fields, else all of them.
template <class S>
constexpr std::size_t required_fields() {
  if constexpr (requires { S::kV1Fields; }) {
    return S::kV1Fields;
  } else {
    return std::numeric_limits<std::size_t>::max();
  }
}

[[noreturn]] inline void malformed(std::size_t at, const std::string& detail) {
  throw replay::ReplayError(replay::ErrorKind::kMalformed, at, detail);
}

/// The ascending-delta rule: `v` as the zigzag delta from `prev`.
inline void put_delta(std::vector<std::uint8_t>& out, std::uint64_t& prev,
                      std::uint64_t v) {
  replay::put_zigzag(out, static_cast<std::int64_t>(v - prev));
  prev = v;
}

/// Reads one delta after `prev`; a negative result is kMalformed.
inline std::uint64_t get_delta(replay::Cursor& c, std::uint64_t& prev,
                               const char* name) {
  const std::size_t at = c.offset();
  const std::uint64_t v = prev + static_cast<std::uint64_t>(c.zigzag());
  if (static_cast<std::int64_t>(v) < 0) {
    malformed(at, std::string(name) + " is negative after delta decode");
  }
  prev = v;
  return v;
}

/// One element of a session stream after the id `prev_id`: its key, then
/// the outcome fields (SessionEvent, below) or, for a checkpoint entry, a
/// parked flag and the outcome or the legacy parked session
/// (checkpoint.cpp).
inline void put_session(std::vector<std::uint8_t>& out,
                        std::uint64_t& prev_id, const SessionEvent& ev);
inline void get_session(replay::Cursor& c, std::uint64_t& prev_id,
                        SessionEvent& ev);
void put_session(std::vector<std::uint8_t>& out, std::uint64_t& prev_id,
                 const CheckpointEntry& e);
void get_session(replay::Cursor& c, std::uint64_t& prev_id,
                 CheckpointEntry& e);

/// Appends each visited field to `out`.
struct FieldWriter {
  std::vector<std::uint8_t>& out;

  template <class T>
  void operator()(const char*, const T& v) const {
    if constexpr (FieldListed<T>) {
      T::for_each_field(*this, v);
    } else if constexpr (kVector<T>) {
      replay::put_varint(out, v.size());
      std::uint64_t prev = 0;
      for (const auto& e : v) {
        if constexpr (kSessionVector<T>) {
          put_session(out, prev, e);
        } else if constexpr (std::is_unsigned_v<typename T::value_type>) {
          put_delta(out, prev, e);
        } else {
          (*this)("", e);
        }
      }
    } else if constexpr (requires { v.has_value(); }) {
      replay::put_varint(out, v ? 1 : 0);
      if (v) (*this)("", *v);
    } else if constexpr (requires { v.first; v.second; }) {
      (*this)("", v.first);
      (*this)("", v.second);
    } else if constexpr (std::is_same_v<T, Rng::State>) {
      for (const std::uint64_t w : v.s) replay::put_varint(out, w);
    } else if constexpr (std::is_same_v<T, std::string>) {
      replay::put_string(out, v);
    } else if constexpr (std::is_same_v<T, double>) {
      replay::put_double(out, v);
    } else {
      static_assert(std::is_unsigned_v<T> || std::is_enum_v<T>);
      replay::put_varint(out, static_cast<std::uint64_t>(v));
    }
  }
};

/// Decodes each visited field in place.  Entries from `required` on are
/// trailing: when the payload ends before one, it keeps its default.
struct FieldReader {
  replay::Cursor& c;
  std::size_t required = std::numeric_limits<std::size_t>::max();
  std::size_t index = 0;

  template <class T>
  void operator()(const char* name, T& v) {
    if (index++ >= required && c.done()) return;
    const std::size_t at = c.offset();
    if constexpr (FieldListed<T>) {
      T::for_each_field(FieldReader{c, required_fields<T>()}, v);
    } else if constexpr (kVector<T>) {
      const std::uint64_t n = c.varint();
      // Every element takes at least one byte: a larger count is corrupt,
      // and rejecting it here keeps the allocation bounded by the input.
      if (n > c.remaining()) {
        malformed(at, std::string(name) + " count " + std::to_string(n) +
                          " exceeds the " + std::to_string(c.remaining()) +
                          " bytes left");
      }
      v.resize(static_cast<std::size_t>(n));
      std::uint64_t prev = 0;
      for (auto& e : v) {
        if constexpr (kSessionVector<T>) {
          get_session(c, prev, e);
        } else if constexpr (std::is_unsigned_v<typename T::value_type>) {
          const std::size_t e_at = c.offset();
          fit(e_at, name, get_delta(c, prev, name), e);
        } else {
          FieldReader{c}(name, e);
        }
      }
    } else if constexpr (requires { v.has_value(); }) {
      if (flag(name)) {
        FieldReader{c}(name, v.emplace());
      } else {
        v.reset();
      }
    } else if constexpr (requires { v.first; v.second; }) {
      FieldReader{c}(name, v.first);
      FieldReader{c}(name, v.second);
    } else if constexpr (std::is_same_v<T, Rng::State>) {
      for (std::uint64_t& w : v.s) w = c.varint();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = c.str();
    } else if constexpr (std::is_same_v<T, double>) {
      v = c.f64();
    } else if constexpr (std::is_same_v<T, bool>) {
      v = flag(name);
    } else if constexpr (std::is_enum_v<T>) {
      const std::uint64_t raw = c.varint();
      if (raw > static_cast<std::uint64_t>(last_enumerator(T{}))) {
        malformed(at, std::string(name) + " value " + std::to_string(raw) +
                          " is not a known enumerator");
      }
      v = static_cast<T>(raw);
    } else {
      static_assert(std::is_unsigned_v<T>);
      fit(at, name, c.varint(), v);
    }
  }

  /// A 0/1 varint; anything else is kMalformed.
  bool flag(const char* name) {
    const std::size_t at = c.offset();
    const std::uint64_t v = c.varint();
    if (v > 1) malformed(at, std::string(name) + " flag must be 0 or 1");
    return v != 0;
  }

  /// Stores `raw` in `v`; a value past T's range is kMalformed at `at`.
  template <class T>
  static void fit(std::size_t at, const char* name, std::uint64_t raw, T& v) {
    if (raw > std::numeric_limits<T>::max()) {
      malformed(at, std::string(name) + " value " + std::to_string(raw) +
                        " does not fit its " +
                        std::to_string(std::numeric_limits<T>::digits) +
                        "-bit field");
    }
    v = static_cast<T>(raw);
  }
};

/// The key every session-stream element starts with, shared by kEvents and
/// the checkpoint entries: the id as a delta from `prev_id`, then the shard.
inline void put_key(std::vector<std::uint8_t>& out, std::uint64_t& prev_id,
                    const SessionEvent& ev) {
  put_delta(out, prev_id, ev.id);
  FieldWriter{out}("shard", ev.shard);
}

inline void get_key(replay::Cursor& c, std::uint64_t& prev_id,
                    SessionEvent& ev) {
  ev.id = get_delta(c, prev_id, "session id");
  FieldReader{c}("shard", ev.shard);
}

inline void put_session(std::vector<std::uint8_t>& out, std::uint64_t& prev_id,
                        const SessionEvent& ev) {
  put_key(out, prev_id, ev);
  SessionEvent::for_each_outcome_field(FieldWriter{out}, ev);
}

inline void get_session(replay::Cursor& c, std::uint64_t& prev_id,
                        SessionEvent& ev) {
  get_key(c, prev_id, ev);
  SessionEvent::for_each_outcome_field(FieldReader{c}, ev);
}

template <class S>
void put_fields(std::vector<std::uint8_t>& out, const S& s) {
  S::for_each_field(FieldWriter{out}, s);
}

template <class S>
void get_fields(replay::Cursor& c, S& s) {
  S::for_each_field(FieldReader{c, required_fields<S>()}, s);
}

}  // namespace wsp::server
