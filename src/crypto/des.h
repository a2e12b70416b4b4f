// DES and Triple-DES ("private-key operations" of the paper's platform).
//
// Two functionally identical block implementations are provided:
//  * the `*_ref` oracle, which applies every FIPS-46 permutation bit by bit
//    and is the ground truth the other paths are tested against, and
//  * the fast path, which is what runs (SSL records, ESP): the E expansion
//    read as 6-bit windows of one rotate against subkeys pre-split at
//    key_schedule time, combined S-box + P-permutation (SP) lookups, IP/FP
//    as 8x256 byte-scatter tables, and 3DES as one fused 48-round pass.
//    Every fast table is built from the oracle's permutations at first use,
//    never transcribed.
// The SP tables and 48-bit subkeys are exported so the XR32 kernels
// (src/kernels/des_kernel.*) can place them in simulator memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsp::des {

/// 16 subkeys of 48 bits each, in two forms.
struct KeySchedule {
  std::array<std::uint64_t, 16> k48;  ///< oracle and XR32-kernel form
  /// The same subkeys split into the eight 6-bit S-box inputs, S1 first.
  std::array<std::array<std::uint8_t, 8>, 16> k6;
};

/// Expands a 64-bit key (parity bits ignored) into 16 subkeys.
KeySchedule key_schedule(std::uint64_t key);

/// Reference single-block encrypt/decrypt (bit-level permutations).
std::uint64_t encrypt_block_ref(std::uint64_t block, const KeySchedule& ks);
std::uint64_t decrypt_block_ref(std::uint64_t block, const KeySchedule& ks);

/// Fast single-block encrypt/decrypt.
std::uint64_t encrypt_block(std::uint64_t block, const KeySchedule& ks);
std::uint64_t decrypt_block(std::uint64_t block, const KeySchedule& ks);

/// 3DES EDE with three independent keys.
struct TripleKeySchedule {
  KeySchedule k1, k2, k3;
};
TripleKeySchedule triple_key_schedule(std::uint64_t key1, std::uint64_t key2,
                                      std::uint64_t key3);
/// Fused fast path; equal to the E(k1), D(k2), E(k3) composition of the
/// single-DES functions (decrypt inverts it).
std::uint64_t encrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks);
std::uint64_t decrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks);

/// ECB / CBC over byte buffers (length must be a multiple of 8).
std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv);
std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv);

/// 3DES-EDE CBC over `len` bytes (a multiple of 8, else
/// std::invalid_argument) from `in` to `out`, which may alias exactly.
/// `iv` seeds the chain; the return value is the CBC residue (the last
/// ciphertext block), i.e. the IV of a follow-on call.
std::uint64_t encrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out,
                               std::size_t len, const TripleKeySchedule& ks,
                               std::uint64_t iv);
std::uint64_t decrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out,
                               std::size_t len, const TripleKeySchedule& ks,
                               std::uint64_t iv);

/// Combined S-box + P-permutation tables: sp_table(i)[v] is the 32-bit
/// contribution of S-box i applied to 6-bit input v, already P-permuted.
const std::array<std::uint32_t, 64>& sp_table(int sbox);

/// Raw S-box output (4 bits) for S-box i and 6-bit input v.
std::uint8_t sbox(int i, std::uint8_t v);

/// The Feistel F function (E expansion, key mix, S-boxes, P permutation)
/// applied to one 32-bit half with a 48-bit subkey: fast path and oracle.
/// Exported so the TIE des_round unit and the kernels share a single
/// ground truth.
std::uint32_t f_function(std::uint32_t r, std::uint64_t k48);
std::uint32_t f_function_ref(std::uint32_t r, std::uint64_t k48);

/// The initial / final permutation of a 64-bit block: table-driven fast
/// path and the bit-level oracle the tables are built from.
std::uint64_t initial_permutation(std::uint64_t block);
std::uint64_t final_permutation(std::uint64_t block);
std::uint64_t initial_permutation_ref(std::uint64_t block);
std::uint64_t final_permutation_ref(std::uint64_t block);

/// Big-endian conversion helpers (DES blocks are big-endian byte streams).
std::uint64_t load_be64(const std::uint8_t* p);
void store_be64(std::uint64_t v, std::uint8_t* p);

}  // namespace wsp::des
