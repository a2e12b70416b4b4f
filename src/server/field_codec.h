// The wsp-replay-v1 codec of the run-state field lists.  Every struct with a
// static for_each_field (SessionEvent, ShardReport, RunReport and
// EngineConfig in engine.h, FaultConfig in faults.h, ssl::PlatformCosts) is
// encoded and decoded by walking that list, so the list order is the wire
// order and a listed field needs no codec edit of its own.
//
// Per field type: unsigned integers are varints, bools and Pricing are 0/1
// varints, doubles are their IEEE-754 bits, a nested listed struct is its
// own fields inline, and a vector of listed structs is a count followed by
// its elements.  Decoding is strict: a value that does not fit its field's
// type, a flag other than 0 or 1, or a count larger than the bytes left is
// ReplayError(kMalformed) at the field's byte offset; nothing is truncated,
// clamped or reserved from an unchecked count.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "server/engine.h"
#include "support/replay.h"

namespace wsp::server {

template <class T>
concept FieldListed = requires(T& t) {
  T::for_each_field([](const char*, auto&) {}, t);
};

template <class T>
inline constexpr bool kListedVector = false;
template <class T>
inline constexpr bool kListedVector<std::vector<T>> = FieldListed<T>;

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

/// A 0/1 varint; anything else is kMalformed.
inline bool get_flag(replay::Cursor& c, const char* name) {
  const std::size_t at = c.offset();
  const std::uint64_t v = c.varint();
  if (v > 1) malformed(at, std::string(name) + " flag must be 0 or 1");
  return v != 0;
}

/// Appends each visited field to `out`.
struct FieldWriter {
  std::vector<std::uint8_t>& out;

  template <class T>
  void operator()(const char*, const T& v) const {
    if constexpr (FieldListed<T>) {
      T::for_each_field(*this, v);
    } else if constexpr (kListedVector<T>) {
      replay::put_varint(out, v.size());
      for (const auto& e : v) (*this)("", e);
    } else if constexpr (std::is_same_v<T, double>) {
      replay::put_double(out, v);
    } else {
      static_assert(std::is_unsigned_v<T> || std::is_same_v<T, Pricing>);
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
    } else if constexpr (kListedVector<T>) {
      const std::uint64_t n = c.varint();
      // Every element takes at least one byte: a larger count is corrupt,
      // and rejecting it here keeps the allocation bounded by the input.
      if (n > c.remaining()) {
        malformed(at, std::string(name) + " count " + std::to_string(n) +
                          " exceeds the " + std::to_string(c.remaining()) +
                          " bytes left");
      }
      v.resize(static_cast<std::size_t>(n));
      for (auto& e : v) FieldReader{c}(name, e);
    } else if constexpr (std::is_same_v<T, double>) {
      v = c.f64();
    } else if constexpr (std::is_same_v<T, bool>) {
      v = get_flag(c, name);
    } else if constexpr (std::is_same_v<T, Pricing>) {
      v = get_flag(c, name) ? Pricing::kOptimized : Pricing::kBase;
    } else {
      static_assert(std::is_unsigned_v<T>);
      const std::uint64_t raw = c.varint();
      if (raw > std::numeric_limits<T>::max()) {
        malformed(at, std::string(name) + " value " + std::to_string(raw) +
                          " does not fit its " +
                          std::to_string(std::numeric_limits<T>::digits) +
                          "-bit field");
      }
      v = static_cast<T>(raw);
    }
  }
};

/// A cipher id varint; an id past the last ssl::Cipher is kMalformed.
inline ssl::Cipher get_cipher(replay::Cursor& c) {
  const std::uint64_t raw = c.varint();
  if (raw > static_cast<std::uint64_t>(ssl::Cipher::kRc4)) {
    malformed(c.offset(), "unknown cipher id " + std::to_string(raw));
  }
  return static_cast<ssl::Cipher>(raw);
}

/// One checked u32 varint, for the hand-written codecs (kScenario,
/// kCheckpoint): a value past 2^32 - 1 is kMalformed at the field's offset.
inline std::uint32_t get_u32(replay::Cursor& c, const char* name) {
  std::uint32_t v = 0;
  FieldReader{c}(name, v);
  return v;
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
