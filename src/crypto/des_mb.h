// Multi-buffer (lane-interleaved) DES / 3DES-EDE CBC kernels.
//
// Same shape as aes_mb.h: each lane is one independent CBC stream, the
// Feistel round loop advances all lanes of a group in lockstep, and the
// compile-time `Lanes` width (1/2/4/8) is selected at runtime.  The only
// thing this file adds is the interleave: the round function, the
// IP/FP/SP tables and the fused 3DES stage order are des.h's fast path, so
// a width-1 group runs the same code as des::encrypt_block_3des.
//
// Bit-identical to des::encrypt_cbc / decrypt_cbc and
// des::encrypt_cbc_3des / decrypt_cbc_3des; proven differentially in
// tests/test_crypto_batch.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "des.h"

namespace wsp::des_mb {

inline constexpr unsigned kMaxLanes = 8;

/// One independent CBC stream.  Exactly one of `ks` (single DES) or `ks3`
/// (3DES-EDE) must be set for a live lane; `ks3` wins if both are.
/// `chain` is the 8-byte IV on entry, the CBC residue (last ciphertext
/// block) on exit.  `in`/`out` may alias exactly, not partially.
struct CbcLane {
  const des::KeySchedule* ks = nullptr;
  const des::TripleKeySchedule* ks3 = nullptr;
  const std::uint8_t* in = nullptr;
  std::uint8_t* out = nullptr;
  std::size_t blocks = 0;     ///< whole 8-byte blocks
  std::uint8_t* chain = nullptr;  ///< 8-byte IV in / residue out
};

/// Compile-time-width kernels; `n` may be smaller than `Lanes`.  Single-DES
/// and 3DES lanes may be mixed (they are partitioned internally).
template <int Lanes>
void encrypt_cbc(CbcLane* lanes, std::size_t n);
template <int Lanes>
void decrypt_cbc(CbcLane* lanes, std::size_t n);

/// Runtime-width entry points; validation as in aes_mb.
void encrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width);
void decrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width);

}  // namespace wsp::des_mb
