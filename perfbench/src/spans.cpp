#include "spans.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double now_s() { return static_cast<double>(steady_ns()) * 1e-9; }

struct SpanRecorder::ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;  ///< parent holds a LOCAL index here
  std::vector<std::int64_t> stack;
};

namespace {

// Every buffer ever registered; owned here so a buffer outlives its thread.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<SpanRecorder::ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<SpanRecorder::ThreadBuffer>> b;
  return b;
}
thread_local SpanRecorder::ThreadBuffer* t_buffer = nullptr;

}  // namespace

SpanRecorder::SpanRecorder() : epoch_ns_(steady_ns()) {}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder r;
  return r;
}

SpanRecorder::ThreadBuffer& SpanRecorder::local() {
  if (t_buffer == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buf->thread = static_cast<std::uint32_t>(buffers().size());
    t_buffer = buf.get();
    buffers().push_back(std::move(buf));
  }
  return *t_buffer;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& b : buffers()) {
    b->spans.clear();
    b->stack.clear();
  }
}

std::int64_t SpanRecorder::open(const char* name, std::uint64_t session) {
  ThreadBuffer& b = local();
  SpanRecord s;
  s.name = name;
  s.start_ns = steady_ns() - epoch_ns_;
  s.parent = b.stack.empty() ? -1 : b.stack.back();
  s.session = session;
  s.thread = b.thread;
  const auto idx = static_cast<std::int64_t>(b.spans.size());
  b.spans.push_back(s);
  b.stack.push_back(idx);
  return idx;
}

void SpanRecorder::close(std::int64_t handle) {
  ThreadBuffer& b = local();
  b.spans[static_cast<std::size_t>(handle)].end_ns = steady_ns() - epoch_ns_;
  b.stack.pop_back();
}

bool SpanRecorder::collect(std::vector<SpanRecord>& out) const {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  out.clear();
  bool balanced = true;
  for (const auto& b : buffers()) {
    const auto offset = static_cast<std::int64_t>(out.size());
    balanced = balanced && b->stack.empty();
    for (SpanRecord s : b->spans) {
      if (s.end_ns < s.start_ns) balanced = false;
      if (s.parent >= 0) s.parent += offset;
      out.push_back(s);
    }
  }
  return balanced;
}

std::map<std::string, SpanStats> SpanRecorder::aggregate(
    const std::vector<SpanRecord>& spans) {
  // Children run on their parent's thread, strictly nested and one after
  // another, so the part of a parent they cover is the sum of their lengths.
  std::vector<double> covered(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    SpanStats& st = out[spans[i].name];
    ++st.count;
    st.total_s += d;
    st.self_s += d - covered[i];
    st.durations.push_back(d);
  }
  return out;
}

void append_spans(std::vector<SpanRecord>& all,
                  const std::vector<SpanRecord>& batch) {
  const auto offset = static_cast<std::int64_t>(all.size());
  for (SpanRecord s : batch) {
    if (s.parent >= 0) s.parent += offset;
    all.push_back(s);
  }
}

double mean_span(const std::map<std::string, SpanStats>& spans,
                 const std::string& name, double scale) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) return std::nan("");
  return it->second.total_s / static_cast<double>(it->second.count) * scale;
}

double total_span(const std::map<std::string, SpanStats>& spans,
                  const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

bool SpanRecorder::write_tsv(const std::vector<SpanRecord>& spans,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tsession\tthread\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%llu\t%u\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.session), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
