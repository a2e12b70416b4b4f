// SSL transaction cost model (paper Fig. 8).
//
// A transaction = one full handshake (dominated by the server's RSA
// private-key operation) + the record-layer transfer of the session data
// (dominated by the symmetric cipher and the MAC).  Component costs come
// from measured kernel cycle counts; the model composes them per
// transaction size and reports the base-vs-optimized speedup and the
// {public-key, symmetric, misc} workload breakdown the paper plots.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace wsp::ssl {

/// Measured/derived per-component cycle costs of one platform configuration.
struct PlatformCosts {
  double rsa_private_cycles = 0.0;     ///< one RSA-1024 private operation
  double rsa_public_cycles = 0.0;      ///< one RSA-1024 public operation
  double symmetric_cycles_per_byte = 0.0;  ///< record cipher
  double hash_cycles_per_byte = 0.0;       ///< HMAC-SHA1 (not accelerated)
  double handshake_misc_cycles = 0.0;      ///< KDF, framing, protocol logic
  double misc_cycles_per_byte = 0.0;       ///< copying / framing per byte

  bool operator==(const PlatformCosts&) const = default;

  /// The fields in wire order (trace kCosts); see
  /// server::SessionEvent::for_each_field for the protocol.
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("rsa_private_cycles", s.rsa_private_cycles...);
    f("rsa_public_cycles", s.rsa_public_cycles...);
    f("symmetric_cycles_per_byte", s.symmetric_cycles_per_byte...);
    f("hash_cycles_per_byte", s.hash_cycles_per_byte...);
    f("handshake_misc_cycles", s.handshake_misc_cycles...);
    f("misc_cycles_per_byte", s.misc_cycles_per_byte...);
  }
};

/// Defaults for the components the platform does NOT accelerate.  The
/// paper's Fig. 8 measures a complete SSL stack in which the unaccelerated
/// "Misc" work (SSLv3 record MACs — a nested MD5/SHA-1 double hash per
/// record in byte-oriented code — plus buffer copies between protocol
/// layers and record framing) is a large share: back-solving their 32KB
/// point (3.05X overall with 33.9X symmetric / 66.4X public-key speedups)
/// puts Misc at ~0.44x the baseline symmetric cost per byte.  We do not
/// simulate the protocol stack, so these constants are calibrated to that
/// measured share: ~420 cyc/B hashing + ~310 cyc/B copying/framing, and
/// ~120k cycles of fixed per-handshake protocol work.
PlatformCosts misc_cost_defaults();

struct TransactionCost {
  double public_key = 0.0;
  double symmetric = 0.0;
  double misc = 0.0;
  double total() const { return public_key + symmetric + misc; }
  double public_key_fraction() const { return public_key / total(); }
  double symmetric_fraction() const { return symmetric / total(); }
  double misc_fraction() const { return misc / total(); }
};

/// Cycle cost of one transaction of `bytes` application data.
TransactionCost transaction_cost(const PlatformCosts& costs, std::size_t bytes);

/// Cycle cost of a transaction on a RESUMED session (abbreviated
/// handshake): no RSA exchange at all, and only the short hello/Finished
/// protocol work up front — the record-layer transfer is unchanged.  This
/// prices the server engine's session-resumption mode, where amortizing the
/// key exchange across reconnects is exactly the point.
TransactionCost resumed_transaction_cost(const PlatformCosts& costs,
                                         std::size_t bytes);

struct SpeedupRow {
  std::size_t bytes = 0;
  TransactionCost base;
  TransactionCost optimized;
  double speedup = 0.0;
};

/// The Fig. 8 series: speedups over a range of transaction sizes.
std::vector<SpeedupRow> ssl_speedup_table(const PlatformCosts& base,
                                          const PlatformCosts& optimized,
                                          const std::vector<std::size_t>& sizes);

/// Renders the table in the paper's format (sizes, breakdown, speedup).
std::string format_speedup_table(const std::vector<SpeedupRow>& rows);

}  // namespace wsp::ssl
