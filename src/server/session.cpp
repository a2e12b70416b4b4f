#include "server/session.h"

#include <algorithm>
#include <string>

#include "crypto/sha1.h"
#include "support/trace.h"

namespace wsp::server {

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kPending: return "pending";
    case SessionState::kEstablished: return "established";
    case SessionState::kClosed: return "closed";
    case SessionState::kAborted: return "aborted";
  }
  return "?";
}

Session::Session(const SessionConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {}

void Session::require(SessionState expected, const char* op) const {
  if (state_ != expected) {
    throw std::logic_error(std::string("server: ") + op + " on a " +
                           to_string(state_) + " session");
  }
}

void Session::handshake(const rsa::PrivateKey& server_key,
                        ModexpEngine& client_engine,
                        ModexpEngine& server_engine) {
  require(SessionState::kPending, "handshake");
  WSP_TRACE_SPAN("server.session", "handshake");
  const unsigned attempt = handshake_attempts_++;
  if (attempt < cfg_.faults.handshake_failures) {
    ++faults_seen_;
    WSP_TRACE_INSTANT_V("server.fault", "handshake_fail",
                        static_cast<double>(attempt));
    try {
      ssl::HandshakeFault fault;
      fault.corrupt_premaster = true;
      ssl::perform_handshake(server_key, cfg_.cipher, client_engine,
                             server_engine, rng_, &fault);
    } catch (const std::runtime_error&) {
      // The hellos and the (corrupted) premaster made it onto the wire
      // before the exchange collapsed.
      wire_bytes_ += 64 + (server_key.bits() + 7) / 8;
      throw SessionError(SessionErrorKind::kHandshakeFailed, cfg_.id,
                         "premaster corrupted in transit (attempt " +
                             std::to_string(attempt) + ")");
    }
    // A corrupted premaster can never yield a shared secret; reaching here
    // would mean the fault was silently swallowed.
    throw SessionError(SessionErrorKind::kHandshakeFailed, cfg_.id,
                       "corrupted premaster unexpectedly accepted");
  }
  keys_ = std::make_unique<ssl::Handshake>(ssl::perform_handshake(
      server_key, cfg_.cipher, client_engine, server_engine, rng_));
  handshake_bytes_ = keys_->handshake_bytes;
  wire_bytes_ += handshake_bytes_;
  state_ = SessionState::kEstablished;
}

void Session::resume() {
  require(SessionState::kPending, "resume");
  WSP_TRACE_SPAN("server.session", "resume");
  const unsigned attempt = handshake_attempts_++;
  if (attempt < cfg_.faults.handshake_failures) {
    ++faults_seen_;
    WSP_TRACE_INSTANT_V("server.fault", "resume_fail",
                        static_cast<double>(attempt));
    // The hellos carrying the session id went on the wire before the
    // ticket was rejected.
    wire_bytes_ += 64;
    throw SessionError(SessionErrorKind::kHandshakeFailed, cfg_.id,
                       "session ticket rejected (attempt " +
                           std::to_string(attempt) + ")");
  }
  // Both sides hold the cached master secret; this session's copy is a
  // pure function of its seed, so resumed runs stay bit-deterministic.
  auto master = rng_.bytes(48);
  auto channels = derive_channel_pair(master);
  keys_ = std::make_unique<ssl::Handshake>(
      ssl::Handshake{std::move(channels.first), std::move(channels.second),
                     std::move(master), kResumedHandshakeBytes});
  handshake_bytes_ = keys_->handshake_bytes;
  wire_bytes_ += handshake_bytes_;
  state_ = SessionState::kEstablished;
}

std::size_t Session::pump(std::size_t max_records) {
  require(SessionState::kEstablished, "pump");
  WSP_TRACE_SPAN("server.session", "pump");
  std::size_t moved = 0;
  for (std::size_t r = 0; r < max_records && !finished(); ++r) {
    const std::size_t payload_len =
        std::min(cfg_.record_bytes, cfg_.transaction_bytes - bytes_sent_);
    const auto payload = rng_.bytes(payload_len);
    const std::uint64_t record = records_;
    const bool poisoned = cfg_.faults.poisons(record);
    unsigned flips_left = poisoned ? 0 : cfg_.faults.flip_attempts(record);
    unsigned failures = 0;
    bool rekeyed = false;
    for (unsigned attempt = 0;; ++attempt) {
      // Retransmissions re-seal the SAME payload: the application data is
      // fixed; only the wire transfer repeats.
      auto wire = keys_->client_write.seal(payload);
      if (poisoned || flips_left > 0) {
        // Flip a bit of the final wire byte.  The tail carries the MAC
        // (stream ciphers) or the last CBC block (block ciphers), so the
        // tamper is always detected — and for CBC it also desyncs the
        // receiver's chaining state, which is what makes rekey() a genuine
        // repair rather than a formality.
        wire.back() ^= static_cast<std::uint8_t>(
            1u << cfg_.faults.flip_bit(record, attempt));
        if (flips_left > 0) --flips_left;
        ++faults_seen_;
        WSP_TRACE_INSTANT_V("server.fault", "wire_flip",
                            static_cast<double>(record));
      }
      wire_bytes_ += wire.size();
      moved += wire.size();
      bool delivered = false;
      try {
        // Equality is the transfer check; repair must never silently
        // accept bytes that differ from what the client sent.
        delivered = keys_->client_write.open(wire) == payload;
      } catch (const std::runtime_error&) {
        delivered = false;  // MAC / padding / framing rejection
      }
      if (delivered) break;
      // The repair ladder's decision for the failure just taken.
      if (++failures <= cfg_.faults.record_retry_budget) {
        ++retries_;
        WSP_TRACE_INSTANT_V("server.fault", "record_retry",
                            static_cast<double>(failures));
      } else if (!rekeyed) {
        // Retransmits alone did not verify: the channel state (CBC IVs,
        // sequence numbers) desynced.  Re-derive both directions from the
        // master secret and retransmit under fresh keys.
        rekey();
        ++repairs_;
        ++retries_;
        rekeyed = true;
        failures = 0;
        WSP_TRACE_INSTANT_V("server.fault", "rekey_repair",
                            static_cast<double>(record));
      } else {
        abort();
        throw SessionError(SessionErrorKind::kAborted, cfg_.id,
                           "record " + std::to_string(record) +
                               " unrecoverable after retry and rekey");
      }
    }
    bytes_sent_ += payload_len;
    ++records_;
  }
  return moved;
}

std::pair<ssl::SecureChannel, ssl::SecureChannel> Session::derive_channel_pair(
    const std::vector<std::uint8_t>& master) {
  // SSLv3-style derivation: fresh nonces, caller-supplied master secret.
  const auto client_random = rng_.bytes(32);
  const auto server_random = rng_.bytes(32);
  const ssl::CipherProfile spec = ssl::cipher_profile(cfg_.cipher);
  const std::size_t block_len =
      2 * (Sha1::kDigestSize + spec.key_len + spec.iv_len);
  const auto key_block =
      ssl::kdf_ssl3(master, server_random, client_random, block_len);
  std::size_t off = 0;
  auto take = [&](std::size_t n) {
    std::vector<std::uint8_t> v(
        key_block.begin() + static_cast<std::ptrdiff_t>(off),
        key_block.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    return v;
  };
  const auto client_mac = take(Sha1::kDigestSize);
  const auto server_mac = take(Sha1::kDigestSize);
  const auto client_key = take(spec.key_len);
  const auto server_key = take(spec.key_len);
  const auto client_iv = take(spec.iv_len);
  const auto server_iv = take(spec.iv_len);
  return {ssl::SecureChannel(cfg_.cipher, client_key, client_mac, client_iv),
          ssl::SecureChannel(cfg_.cipher, server_key, server_mac, server_iv)};
}

void Session::rekey() {
  require(SessionState::kEstablished, "rekey");
  WSP_TRACE_SPAN("server.session", "rekey");
  auto channels = derive_channel_pair(keys_->master_secret);
  keys_->client_write = std::move(channels.first);
  keys_->server_write = std::move(channels.second);
  wire_bytes_ += 64;  // the two hello nonces on the wire
  ++rekeys_;
}

void Session::teardown() {
  if (state_ == SessionState::kClosed || state_ == SessionState::kAborted) {
    return;
  }
  WSP_TRACE_SPAN("server.session", "teardown");
  keys_.reset();  // drop key material with the connection
  state_ = SessionState::kClosed;
}

void Session::abort() {
  if (state_ == SessionState::kClosed || state_ == SessionState::kAborted) {
    return;
  }
  WSP_TRACE_INSTANT("server.session", "abort");
  keys_.reset();
  state_ = SessionState::kAborted;
}

}  // namespace wsp::server
