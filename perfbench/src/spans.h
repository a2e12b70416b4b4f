// In-memory span recorder for the traced benchmark run.
//
// The library under test is not instrumented: spans are opened and closed by
// the benchmark's own code around each call it makes into a layer's public
// API.  Each thread appends to its own buffer (no lock on the hot path); the
// buffers are merged and written out only after the run ends.  While the
// recorder is disabled a ScopedSpan costs one relaxed atomic load, so the
// same replay code gives the untraced baseline for trace.overhead_frac.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< static string, e.g. "server.session.pump"
  std::int64_t start_ns = 0;   ///< steady_clock, relative to the recorder epoch
  std::int64_t end_ns = -1;    ///< -1 while the span is open
  std::int64_t parent = -1;    ///< global index of the enclosing span, or -1
  std::uint64_t session = 0;   ///< session id the span belongs to (0 = none)
  std::uint32_t thread = 0;    ///< recorder-assigned thread number
};

/// Per-name aggregate over closed spans.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;           ///< sum of durations
  double self_s = 0.0;            ///< sum of (duration - covered by children)
  std::vector<double> durations;  ///< seconds, one per span
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded span (all threads must be idle).
  void clear();

  /// Merges the thread buffers.  Returns false if any span is still open or
  /// ends before it starts.
  bool collect(std::vector<SpanRecord>& out) const;

  /// Aggregates collected spans by name; self time subtracts the part of
  /// each span covered by its direct children.
  static std::map<std::string, SpanStats> aggregate(
      const std::vector<SpanRecord>& spans);

  /// Writes one tab-separated line per span: name, start, end, parent,
  /// session, thread.  Returns false when the file cannot be written.
  static bool write_tsv(const std::vector<SpanRecord>& spans,
                        const std::string& path);

  // Used by ScopedSpan.
  std::int64_t open(const char* name, std::uint64_t session);
  void close(std::int64_t handle);

  struct ThreadBuffer;  ///< defined in spans.cpp

 private:
  SpanRecorder();
  ThreadBuffer& local();

  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;
};

/// Records one span from construction to destruction when the recorder is
/// enabled; otherwise does nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t session = 0) {
    SpanRecorder& r = SpanRecorder::instance();
    if (r.enabled()) handle_ = r.open(name, session);
  }
  ~ScopedSpan() {
    if (handle_ >= 0) SpanRecorder::instance().close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t handle_ = -1;
};

/// Appends a collected batch to `all`, rebasing its parent indices.
void append_spans(std::vector<SpanRecord>& all,
                  const std::vector<SpanRecord>& batch);

/// Mean span length of `name` times `scale` (1e6 = microseconds), or NaN
/// when no such span was recorded.
double mean_span(const std::map<std::string, SpanStats>& spans,
                 const std::string& name, double scale);

/// Total length of every span called `name`, seconds (0 when none).
double total_span(const std::map<std::string, SpanStats>& spans,
                  const std::string& name);

/// steady_clock seconds since an arbitrary epoch.
double now_s();

}  // namespace perfbench
