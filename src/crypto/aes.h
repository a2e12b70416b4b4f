// AES-128/192/256 (FIPS-197).
//
// Two functionally identical paths:
//  * the `*_ref` oracle: byte-oriented SubBytes / ShiftRows / MixColumns
//    rounds, the ground truth mirroring the "well-optimized C" baseline
//    measured in the paper's Table 1, and
//  * the table-driven path that runs (SSL records): T-table encryption, the
//    structure the XR32 kernels implement, and the inverse cipher as an
//    inverse-S-box gather followed by InvMixColumns through U tables.
// Every table is synthesized from GF(2^8) arithmetic at first use rather
// than transcribed, and all are exported for the kernel builders.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace wsp::aes {

/// Expanded key: 4*(rounds+1) round-key words.
struct KeySchedule {
  std::vector<std::uint32_t> round_keys;  ///< big-endian packed words
  int rounds = 0;                         ///< 10, 12 or 14
};

/// Expands a 16/24/32-byte key.
KeySchedule key_schedule(const std::uint8_t* key, std::size_t key_len);
KeySchedule key_schedule(const std::vector<std::uint8_t>& key);

/// Inverse-cipher key schedule is derived internally by decrypt functions.
void encrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks);
void decrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks);

/// Table-driven implementations (same results).
void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks);
void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks);

/// ECB / CBC over byte buffers (length must be a multiple of 16).
std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv);
std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv);

/// Forward S-box and its inverse.
const std::array<std::uint8_t, 256>& sbox();
const std::array<std::uint8_t, 256>& inv_sbox();

/// GF(2^8) multiply (AES polynomial x^8+x^4+x^3+x+1).
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

// --- Table-driven rounds, shared by aes.cpp and the TIE model --------------
//
// The state is four big-endian column words s0..s3 (separate scalars, not
// an array, so they stay in registers).  Inner rounds update them in
// place; the final rounds store the output block.

using WordTables = std::array<std::array<std::uint32_t, 256>, 4>;

struct Tables {
  std::array<std::uint8_t, 256> sbox;
  std::array<std::uint8_t, 256> inv_sbox;
  /// te[i][b]: SubBytes + MixColumns contribution of byte b in row i.
  WordTables te;
  /// u[i][b]: InvMixColumns contribution of byte b in row i.
  WordTables u;
};
Tables build_tables();
/// Built on first use; inline so a hot loop pays only the guard check.
inline const Tables& tables() {
  static const Tables t = build_tables();
  return t;
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

inline void store_be32(std::uint32_t v, std::uint8_t* p) {
  p[0] = std::uint8_t(v >> 24);
  p[1] = std::uint8_t(v >> 16);
  p[2] = std::uint8_t(v >> 8);
  p[3] = std::uint8_t(v);
}

/// Row 0 of a, row 1 of b, row 2 of c and row 3 of d, each through its
/// row's table, XORed: one output column of a T-table round.
inline std::uint32_t mix_column(const WordTables& tab, std::uint32_t a,
                                std::uint32_t b, std::uint32_t c,
                                std::uint32_t d) {
  return tab[0][a >> 24] ^ tab[1][(b >> 16) & 0xff] ^ tab[2][(c >> 8) & 0xff] ^
         tab[3][d & 0xff];
}

/// The same selection through a byte box, without mixing.
inline std::uint32_t sub_column(const std::array<std::uint8_t, 256>& box,
                                std::uint32_t a, std::uint32_t b,
                                std::uint32_t c, std::uint32_t d) {
  return (std::uint32_t(box[a >> 24]) << 24) |
         (std::uint32_t(box[(b >> 16) & 0xff]) << 16) |
         (std::uint32_t(box[(c >> 8) & 0xff]) << 8) | std::uint32_t(box[d & 0xff]);
}

/// SubBytes, ShiftRows, MixColumns, AddRoundKey(k).
inline void encrypt_round(std::uint32_t& s0, std::uint32_t& s1, std::uint32_t& s2,
                          std::uint32_t& s3, const std::uint32_t* k,
                          const Tables& t) {
  const std::uint32_t n0 = mix_column(t.te, s0, s1, s2, s3) ^ k[0];
  const std::uint32_t n1 = mix_column(t.te, s1, s2, s3, s0) ^ k[1];
  const std::uint32_t n2 = mix_column(t.te, s2, s3, s0, s1) ^ k[2];
  const std::uint32_t n3 = mix_column(t.te, s3, s0, s1, s2) ^ k[3];
  s0 = n0; s1 = n1; s2 = n2; s3 = n3;
}

/// The final round (no MixColumns), stored big-endian to `out`.
inline void encrypt_final_round(std::uint32_t s0, std::uint32_t s1,
                                std::uint32_t s2, std::uint32_t s3,
                                const std::uint32_t* k, const Tables& t,
                                std::uint8_t out[16]) {
  store_be32(sub_column(t.sbox, s0, s1, s2, s3) ^ k[0], out);
  store_be32(sub_column(t.sbox, s1, s2, s3, s0) ^ k[1], out + 4);
  store_be32(sub_column(t.sbox, s2, s3, s0, s1) ^ k[2], out + 8);
  store_be32(sub_column(t.sbox, s3, s0, s1, s2) ^ k[3], out + 12);
}

/// The final inverse round: InvShiftRows + InvSubBytes as one gather, then
/// AddRoundKey(k), stored big-endian to `out`.  CBC callers pass the round
/// key XOR the chain as `k`.
inline void decrypt_final_round(std::uint32_t s0, std::uint32_t s1,
                                std::uint32_t s2, std::uint32_t s3,
                                const std::uint32_t* k, const Tables& t,
                                std::uint8_t out[16]) {
  store_be32(sub_column(t.inv_sbox, s0, s3, s2, s1) ^ k[0], out);
  store_be32(sub_column(t.inv_sbox, s1, s0, s3, s2) ^ k[1], out + 4);
  store_be32(sub_column(t.inv_sbox, s2, s1, s0, s3) ^ k[2], out + 8);
  store_be32(sub_column(t.inv_sbox, s3, s2, s1, s0) ^ k[3], out + 12);
}

/// An inner inverse round: InvShiftRows + InvSubBytes, AddRoundKey(k)
/// with the untransformed schedule, then InvMixColumns.
inline void decrypt_round(std::uint32_t& s0, std::uint32_t& s1, std::uint32_t& s2,
                          std::uint32_t& s3, const std::uint32_t* k,
                          const Tables& t) {
  const std::uint32_t n0 = sub_column(t.inv_sbox, s0, s3, s2, s1) ^ k[0];
  const std::uint32_t n1 = sub_column(t.inv_sbox, s1, s0, s3, s2) ^ k[1];
  const std::uint32_t n2 = sub_column(t.inv_sbox, s2, s1, s0, s3) ^ k[2];
  const std::uint32_t n3 = sub_column(t.inv_sbox, s3, s2, s1, s0) ^ k[3];
  s0 = mix_column(t.u, n0, n0, n0, n0);
  s1 = mix_column(t.u, n1, n1, n1, n1);
  s2 = mix_column(t.u, n2, n2, n2, n2);
  s3 = mix_column(t.u, n3, n3, n3, n3);
}

}  // namespace wsp::aes
