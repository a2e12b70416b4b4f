// Compact, versioned binary record/replay stream (format "wsp-replay-v1").
//
// This is the generic codec layer: it knows nothing about the server engine.
// A stream is a 4-byte magic + varint format version, followed by CRC-framed
// chunks — [tag varint][payload length varint][payload][crc32 LE32] — and a
// mandatory empty end-of-stream chunk (tag 0), so truncation is detected at
// chunk granularity even when it falls exactly on a chunk boundary.  Chunk
// payloads are built from varint / zigzag-delta / bit-exact-double
// primitives, so a typical engine-run record is a few hundred bytes.
//
// Layering follows the retrozip archive/filter idiom: producers write
// through a ByteSink (memory, file, or a CRC-accumulating filter stacked on
// either), consumers pull validated chunks from a ChunkReader and decode
// payloads with a bounds-checked Cursor.  Every malformed input — bad magic,
// version skew, CRC mismatch, truncation, varint overflow — fails loudly
// with a typed ReplayError; no error is reported as "empty stream".
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace wsp::replay {

/// First bytes of every stream: "WSPR", then the format version as varint.
constexpr std::uint8_t kMagic[4] = {'W', 'S', 'P', 'R'};
constexpr std::uint64_t kFormatVersion = 1;

/// Tag of the mandatory final chunk (empty payload).
constexpr std::uint64_t kEndTag = 0;

enum class ErrorKind {
  kTruncated,       ///< stream ends mid-header, mid-chunk or before the end tag
  kBadMagic,        ///< first bytes are not "WSPR"
  kVersionSkew,     ///< format version != kFormatVersion
  kCrcMismatch,     ///< a chunk's CRC-32 frame check failed
  kVarintOverflow,  ///< varint longer than 10 bytes / value > 64 bits
  kMalformed,       ///< structurally invalid payload (decoder-level)
};

const char* to_string(ErrorKind kind);

/// Typed decode failure: kind + byte offset (where known) + detail.
class ReplayError : public std::runtime_error {
 public:
  ReplayError(ErrorKind kind, std::size_t offset, const std::string& detail);

  ErrorKind kind() const { return kind_; }
  std::size_t offset() const { return offset_; }

 private:
  ErrorKind kind_;
  std::size_t offset_;
};

// --- sinks (retrozip-style: filters stack on sinks) ------------------------

/// Byte consumer; write() may be called any number of times, finish() once.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void write(const std::uint8_t* data, std::size_t n) = 0;
  virtual void finish() {}
};

/// Accumulates into an owned buffer.
class VectorSink final : public ByteSink {
 public:
  void write(const std::uint8_t* data, std::size_t n) override;
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Writes through to a stdio file; ok() goes false on the first failure and
/// error() carries a description (path + errno text).  A sink destroyed
/// while still open is closed in the destructor; if that close drops
/// buffered bytes, the failure is reported to stderr — the destructor has
/// nowhere else to put it, but silence would let a torn baseline or trace
/// pass for a complete one.  Callers that need the error programmatically
/// call finish() and check ok()/error() first.
class FileSink final : public ByteSink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  void write(const std::uint8_t* data, std::size_t n) override;
  void flush();            ///< pushes buffered bytes to the OS (checkpoints)
  void finish() override;  ///< closes; further writes are errors
  bool ok() const { return ok_; }
  /// Empty while ok(); otherwise what failed first, with the path.
  const std::string& error() const { return error_; }

 private:
  void fail(const char* what);

  std::FILE* file_ = nullptr;
  bool ok_ = false;
  std::string path_;
  std::string error_;
};

/// Pass-through filter that accumulates a running CRC-32 of everything
/// written, then forwards unchanged to the next sink.
class Crc32Filter final : public ByteSink {
 public:
  explicit Crc32Filter(ByteSink& next);
  void write(const std::uint8_t* data, std::size_t n) override;
  std::uint32_t crc() const;  ///< CRC-32 of all bytes written so far

 private:
  ByteSink& next_;
  std::uint32_t state_;
};

// --- payload primitives ----------------------------------------------------

/// Unsigned LEB128.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
/// Zigzag-mapped signed value (for deltas).
void put_zigzag(std::vector<std::uint8_t>& out, std::int64_t v);
/// IEEE-754 bit pattern, little-endian — bit-exact round trip.
void put_double(std::vector<std::uint8_t>& out, double v);
/// Length-prefixed byte string.
void put_string(std::vector<std::uint8_t>& out, const std::string& s);

/// Bounds-checked decoder over a payload span; every read throws
/// ReplayError(kTruncated/kVarintOverflow) instead of reading past the end.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Cursor(const std::vector<std::uint8_t>& bytes)
      : Cursor(bytes.data(), bytes.size()) {}

  std::uint64_t varint();
  std::int64_t zigzag();
  double f64();
  std::string str();

  bool done() const { return off_ == size_; }
  std::size_t offset() const { return off_; }
  std::size_t remaining() const { return size_ - off_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

// --- chunk framing ---------------------------------------------------------

/// Emits the stream header on construction, then CRC-framed chunks; end()
/// writes the end-of-stream chunk and finishes the sink.
class ChunkWriter {
 public:
  explicit ChunkWriter(ByteSink& sink);
  void chunk(std::uint64_t tag, const std::vector<std::uint8_t>& payload);
  void end();

 private:
  ByteSink& sink_;
  bool ended_ = false;
};

struct Chunk {
  std::uint64_t tag = 0;
  std::vector<std::uint8_t> payload;
};

/// Validates magic + version on construction, then yields CRC-checked
/// chunks; next() returns nullopt once the end chunk has been consumed and
/// throws kTruncated if the stream stops before it.
class ChunkReader {
 public:
  ChunkReader(const std::uint8_t* data, std::size_t size);
  explicit ChunkReader(const std::vector<std::uint8_t>& bytes)
      : ChunkReader(bytes.data(), bytes.size()) {}

  std::optional<Chunk> next();
  std::uint64_t version() const { return version_; }
  /// Bytes consumed so far (after the last next(): the following chunk's
  /// first header byte).  Lets trace scanners report tear positions.
  std::size_t offset() const { return off_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  std::uint64_t version_ = 0;
  bool done_ = false;
};

/// Reads a whole file; throws ReplayError(kTruncated) when unreadable.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace wsp::replay
