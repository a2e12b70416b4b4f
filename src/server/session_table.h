// Sharded, slab-backed table of live sessions — the million-session data
// plane (ROADMAP item 1).
//
// Layout: each shard owns a support::Slab<Session> (the HOT blocks, packed
// densely into stable chunked storage — no per-session malloc on the
// admission path) plus a flat open-addressing index mapping session id to
// the slab slot.  Cold key material lives behind one pointer inside the
// Session itself (see session.h).  Compared to the former
// unordered_map<id, unique_ptr<Session>>, admission costs one slab bump +
// one linear-probe insert instead of two heap allocations and a node-hash
// rehash, and a shard's live sessions sit in a few contiguous arrays.
//
// Handles: insert() returns a SessionHandle carrying the slab ref with its
// generation counter.  A handle held after erase goes stale instead of
// aliasing the slot's next tenant — get()/erase() on a stale handle return
// nullptr/false.  Handle lookups skip the index probe entirely.
//
// Concurrency contract (unchanged): the table's own operations are
// thread-safe (per-shard mutex); the Session a lookup returns is NOT
// internally synchronized.  The scheduler guarantees at most one pump task
// per shard and every work item for a session lands on shard_of(id), so
// exactly one thread ever touches a given Session after insertion.
// Session addresses are stable for their whole lifetime (slab chunks never
// move) across concurrent inserts/erases of other ids.
//
// Memory accounting: bytes_per_session() is a *structural* constant —
// slab slot + cold block + index slots at max load — chosen so the bench
// metric is a pure function of the build, not of allocator or thread
// timing (the determinism contract extends to BENCH_server.json).
// bytes_reserved() reports actual reservations for diagnostics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "server/session.h"
#include "support/arena.h"

namespace wsp::server {

/// Handle to a live table entry: the id plus the generation-counted slab
/// ref.  Value-semantic; a default-constructed handle is never valid.
struct SessionHandle {
  std::uint64_t id = 0;
  support::SlabRef ref;

  bool operator==(const SessionHandle&) const = default;
};

namespace detail {

/// Open-addressing id -> SlabRef map: linear probing over a power-of-two
/// array at <= 50% load, erase by backward shift (no tombstones, so probe
/// chains never rot under the insert/erase churn of session turnover).
class FlatIndex {
 public:
  struct Entry {
    std::uint64_t id = 0;
    support::SlabRef ref;
    bool used = false;
  };

  /// Caller guarantees the id is absent (the table checks find() first).
  void insert(std::uint64_t id, support::SlabRef ref) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = bucket(id);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i] = Entry{id, ref, true};
    ++size_;
  }

  const Entry* find(std::uint64_t id) const {
    if (slots_.empty()) return nullptr;
    std::size_t i = bucket(id);
    while (slots_[i].used) {
      if (slots_[i].id == id) return &slots_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  bool erase(std::uint64_t id) {
    if (slots_.empty()) return false;
    std::size_t hole = bucket(id);
    for (;;) {
      if (!slots_[hole].used) return false;
      if (slots_[hole].id == id) break;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull every displaced follower whose probe chain
    // crosses the hole, preserving lookup invariants without tombstones.
    std::size_t j = (hole + 1) & mask_;
    while (slots_[j].used) {
      const std::size_t ideal = bucket(slots_[j].id);
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole] = Entry{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  std::size_t bytes_reserved() const { return slots_.size() * sizeof(Entry); }

 private:
  std::size_t bucket(std::uint64_t id) const {
    // SplitMix64 finalizer: session ids are often sequential, so spread
    // them before masking.
    std::uint64_t x = id + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & mask_;
  }

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Entry{});
    mask_ = cap - 1;
    for (const Entry& e : old) {
      if (!e.used) continue;
      std::size_t i = bucket(e.id);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = e;
    }
  }

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

class SessionTable {
 public:
  explicit SessionTable(unsigned shards);

  unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }
  unsigned shard_of(std::uint64_t id) const {
    return static_cast<unsigned>(id % shards_.size());
  }

  struct Inserted {
    SessionHandle handle;
    Session* session = nullptr;
  };

  /// Constructs the session in place in its shard's slab and registers it;
  /// throws std::logic_error on duplicate id.
  Inserted insert(const SessionConfig& cfg);

  /// Handle lookup — O(1) slab access, no index probe.  nullptr when the
  /// handle is stale (session already erased, slot possibly reused).
  Session* get(const SessionHandle& handle);

  /// nullptr when the id is unknown (already torn down / never admitted).
  Session* find(std::uint64_t id);

  /// Removes and destroys the session; false when the handle is stale.
  bool erase(const SessionHandle& handle);

  /// Removes and destroys the session; false when the id is unknown.
  bool erase(std::uint64_t id);

  /// Live sessions right now (atomic counter — safe to sample anytime).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// High-water mark of live sessions over the table's lifetime.
  std::size_t peak_size() const { return peak_.load(std::memory_order_relaxed); }

  /// Structural bytes one live session costs at steady state: hot slab
  /// slot + cold key block + its share of index slots at max (50%) load.
  /// A compile-time property of the build — deterministic across threads
  /// and hosts — which is what BENCH_server.json's memory_per_session
  /// reports.
  static constexpr std::size_t bytes_per_session() {
    return SessionSlab::slot_bytes() + Session::cold_bytes() +
           2 * sizeof(detail::FlatIndex::Entry);
  }

  /// Actual bytes reserved right now across shards (slab chunks + index
  /// arrays); high-water behaviour — neither ever shrinks mid-run.
  std::size_t bytes_reserved() const;

 private:
  using SessionSlab = support::Slab<Session, 1024>;

  struct Shard {
    std::mutex mutex;
    SessionSlab slab;
    detail::FlatIndex index;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> peak_{0};
};

}  // namespace wsp::server
