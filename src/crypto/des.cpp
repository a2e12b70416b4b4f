#include "crypto/des.h"

#include <stdexcept>
#include <utility>

namespace wsp::des {

namespace {

// FIPS-46 tables.  Entries are 1-based bit positions counted from the MSB,
// as in the standard.
constexpr int kIP[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr int kFP[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr int kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
                        8,  9,  10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
                        16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
                        24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr int kP[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
                        2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr int kPC1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
                          10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
                          63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
                          14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr int kPC2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                          23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                          41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                          44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::uint8_t kSBox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8, 4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4, 1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

// Applies a 1-based-from-MSB permutation table: output bit i (MSB first)
// takes input bit table[i].
template <int OutBits, int InBits>
std::uint64_t permute(std::uint64_t in, const int (&table)[OutBits]) {
  std::uint64_t out = 0;
  for (int i = 0; i < OutBits; ++i) {
    const int src = table[i];  // 1-based from MSB of the InBits-wide value
    const std::uint64_t bit = (in >> (InBits - src)) & 1;
    out |= bit << (OutBits - 1 - i);
  }
  return out;
}

// S-box input indexing: 6-bit value b1 b2 b3 b4 b5 b6 -> row = b1 b6,
// col = b2 b3 b4 b5.
std::uint8_t sbox_lookup(int box, std::uint8_t v6) {
  const int row = ((v6 >> 4) & 2) | (v6 & 1);
  const int col = (v6 >> 1) & 0xf;
  return kSBox[box][row * 16 + col];
}

// The Feistel function on a 32-bit half with a 48-bit subkey.
std::uint32_t feistel_ref(std::uint32_t r, std::uint64_t k48) {
  const std::uint64_t e = permute<48, 32>(r, kE) ^ k48;
  std::uint32_t s_out = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t v6 = static_cast<std::uint8_t>((e >> (42 - 6 * i)) & 0x3f);
    s_out = (s_out << 4) | sbox_lookup(i, v6);
  }
  return static_cast<std::uint32_t>(permute<32, 32>(s_out, kP));
}

std::uint64_t crypt_ref(std::uint64_t block, const KeySchedule& ks, bool decrypt) {
  const std::uint64_t ip = permute<64, 64>(block, kIP);
  std::uint32_t l = static_cast<std::uint32_t>(ip >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(ip);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t k = ks.k48[decrypt ? 15 - round : round];
    const std::uint32_t nl = r;
    r = l ^ feistel_ref(r, k);
    l = nl;
  }
  // Note the final swap: the output is (R16, L16).
  const std::uint64_t preout = (static_cast<std::uint64_t>(r) << 32) | l;
  return permute<64, 64>(preout, kFP);
}

// --- fast path: tables and rounds, built from the oracle above ----------

// Lookup tables of the fast path, built once from the oracle.
struct FastTables {
  std::array<std::array<std::uint32_t, 64>, 8> sp;  // sp_table(i)
  // Byte-scatter permutations: ip[p][v] is the initial permutation of
  // byte v placed at byte p (MSB first); fp likewise.
  std::uint64_t ip[8][256];
  std::uint64_t fp[8][256];
};

FastTables build_fast_tables() {
  FastTables t{};
  for (int box = 0; box < 8; ++box) {
    for (int v = 0; v < 64; ++v) {
      // Place the 4-bit S-box output at its position in the 32-bit
      // pre-permutation word, then permute.
      const std::uint32_t s = sbox_lookup(box, static_cast<std::uint8_t>(v));
      t.sp[static_cast<std::size_t>(box)][static_cast<std::size_t>(v)] =
          static_cast<std::uint32_t>(permute<32, 32>(s << (28 - 4 * box), kP));
    }
  }
  for (int p = 0; p < 8; ++p) {
    for (int v = 0; v < 256; ++v) {
      const std::uint64_t x = static_cast<std::uint64_t>(v) << (56 - 8 * p);
      t.ip[p][v] = permute<64, 64>(x, kIP);
      t.fp[p][v] = permute<64, 64>(x, kFP);
    }
  }
  return t;
}

// Built on first use, so a hot loop pays only the guard check.
const FastTables& fast_tables() {
  static const FastTables t = build_fast_tables();
  return t;
}

// A bit permutation distributes over OR of disjoint bits, so the OR of
// the eight per-byte images is the permuted block.
std::uint64_t permute_bytes(const std::uint64_t (&tab)[8][256],
                            std::uint64_t v) {
  return tab[0][(v >> 56) & 0xff] | tab[1][(v >> 48) & 0xff] |
         tab[2][(v >> 40) & 0xff] | tab[3][(v >> 32) & 0xff] |
         tab[4][(v >> 24) & 0xff] | tab[5][(v >> 16) & 0xff] |
         tab[6][(v >> 8) & 0xff] | tab[7][v & 0xff];
}

// F with a pre-split subkey.  With ro = rotr32(r, 1) the eight 6-bit E
// groups are consecutive windows of ro: group i (0..6) is
// (ro >> (26 - 4i)) & 0x3f, and group 7 wraps as (ro << 2 | ro >> 30).
std::uint32_t feistel(std::uint32_t r, const std::array<std::uint8_t, 8>& k,
                      const FastTables& t) {
  const std::uint32_t ro = (r >> 1) | (r << 31);
  return t.sp[0][((ro >> 26) & 0x3f) ^ k[0]] ^
         t.sp[1][((ro >> 22) & 0x3f) ^ k[1]] ^
         t.sp[2][((ro >> 18) & 0x3f) ^ k[2]] ^
         t.sp[3][((ro >> 14) & 0x3f) ^ k[3]] ^
         t.sp[4][((ro >> 10) & 0x3f) ^ k[4]] ^
         t.sp[5][((ro >> 6) & 0x3f) ^ k[5]] ^
         t.sp[6][((ro >> 2) & 0x3f) ^ k[6]] ^
         t.sp[7][(((ro << 2) | (ro >> 30)) & 0x3f) ^ k[7]];
}

// A fused pass runs IP, then one 16-round stage per schedule with the
// halves swapped between stages (each interior FP.IP pair cancels), then
// FP of (r, l).  3DES-EDE encrypts with stages K1, K2, K3 and decrypts
// with K3, K2, K1; stage s takes its subkeys in reverse (decrypt) order
// iff (s is odd) == encrypt, which also covers single DES (s = 0).
bool stage_reversed(int stage, bool encrypt) {
  return ((stage & 1) != 0) == encrypt;
}
std::array<const KeySchedule*, 3> stages_3des(const TripleKeySchedule& ks,
                                              bool encrypt) {
  if (encrypt) return {&ks.k1, &ks.k2, &ks.k3};
  return {&ks.k3, &ks.k2, &ks.k1};
}

std::array<std::uint8_t, 8> split6(std::uint64_t k48) {
  std::array<std::uint8_t, 8> k{};
  for (int i = 0; i < 8; ++i) {
    k[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((k48 >> (42 - 6 * i)) & 0x3f);
  }
  return k;
}

// The fused pass above over `n` stage schedules (1 = DES, 3 = 3DES).
// Two rounds per iteration update the halves in place, so no swap is
// needed inside a stage.
std::uint64_t crypt_fast(std::uint64_t block, const KeySchedule* const* stages,
                         int n, bool encrypt) {
  const FastTables& t = fast_tables();
  const std::uint64_t ip = permute_bytes(t.ip, block);
  std::uint32_t l = static_cast<std::uint32_t>(ip >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(ip);
  for (int s = 0; s < n; ++s) {
    if (s > 0) std::swap(l, r);
    const auto& k6 = stages[s]->k6;
    const int flip = stage_reversed(s, encrypt) ? 15 : 0;  // i ^ 15 == 15 - i
    for (int i = 0; i < 16; i += 2) {
      l ^= feistel(r, k6[static_cast<std::size_t>(i ^ flip)], t);
      r ^= feistel(l, k6[static_cast<std::size_t>((i + 1) ^ flip)], t);
    }
  }
  return permute_bytes(t.fp, (static_cast<std::uint64_t>(r) << 32) | l);
}

std::uint32_t rotl28(std::uint32_t v, int n) {
  return ((v << n) | (v >> (28 - n))) & 0x0fffffff;
}

}  // namespace

KeySchedule key_schedule(std::uint64_t key) {
  KeySchedule ks{};
  const std::uint64_t pc1 = permute<56, 64>(key, kPC1);
  std::uint32_t c = static_cast<std::uint32_t>(pc1 >> 28) & 0x0fffffff;
  std::uint32_t d = static_cast<std::uint32_t>(pc1) & 0x0fffffff;
  for (int round = 0; round < 16; ++round) {
    c = rotl28(c, kShifts[round]);
    d = rotl28(d, kShifts[round]);
    const std::uint64_t cd = (static_cast<std::uint64_t>(c) << 28) | d;
    ks.k48[round] = permute<48, 56>(cd, kPC2);
    ks.k6[round] = split6(ks.k48[round]);
  }
  return ks;
}

std::uint64_t encrypt_block_ref(std::uint64_t block, const KeySchedule& ks) {
  return crypt_ref(block, ks, false);
}
std::uint64_t decrypt_block_ref(std::uint64_t block, const KeySchedule& ks) {
  return crypt_ref(block, ks, true);
}
std::uint64_t encrypt_block(std::uint64_t block, const KeySchedule& ks) {
  const KeySchedule* stage = &ks;
  return crypt_fast(block, &stage, 1, true);
}
std::uint64_t decrypt_block(std::uint64_t block, const KeySchedule& ks) {
  const KeySchedule* stage = &ks;
  return crypt_fast(block, &stage, 1, false);
}

TripleKeySchedule triple_key_schedule(std::uint64_t key1, std::uint64_t key2,
                                      std::uint64_t key3) {
  return TripleKeySchedule{key_schedule(key1), key_schedule(key2),
                           key_schedule(key3)};
}

std::uint64_t encrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks) {
  return crypt_fast(block, stages_3des(ks, true).data(), 3, true);
}
std::uint64_t decrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks) {
  return crypt_fast(block, stages_3des(ks, false).data(), 3, false);
}

namespace {
void check_len(std::size_t n) {
  if (n % 8 != 0) throw std::invalid_argument("des: length must be multiple of 8");
}
}  // namespace

std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 8) {
    store_be64(encrypt_block(load_be64(data.data() + i), ks), out.data() + i);
  }
  return out;
}

std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 8) {
    store_be64(decrypt_block(load_be64(data.data() + i), ks), out.data() + i);
  }
  return out;
}

std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  std::uint64_t chain = iv;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    chain = encrypt_block(load_be64(data.data() + i) ^ chain, ks);
    store_be64(chain, out.data() + i);
  }
  return out;
}

std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  std::uint64_t chain = iv;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    const std::uint64_t c = load_be64(data.data() + i);
    store_be64(decrypt_block(c, ks) ^ chain, out.data() + i);
    chain = c;
  }
  return out;
}

std::uint64_t encrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out,
                               std::size_t len, const TripleKeySchedule& ks,
                               std::uint64_t iv) {
  check_len(len);
  for (std::size_t i = 0; i < len; i += 8) {
    iv = encrypt_block_3des(load_be64(in + i) ^ iv, ks);
    store_be64(iv, out + i);
  }
  return iv;
}

std::uint64_t decrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out,
                               std::size_t len, const TripleKeySchedule& ks,
                               std::uint64_t iv) {
  check_len(len);
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t c = load_be64(in + i);
    store_be64(decrypt_block_3des(c, ks) ^ iv, out + i);
    iv = c;
  }
  return iv;
}

const std::array<std::uint32_t, 64>& sp_table(int sbox) {
  return fast_tables().sp[static_cast<std::size_t>(sbox)];
}

std::uint8_t sbox(int i, std::uint8_t v) { return sbox_lookup(i, v); }

std::uint32_t f_function(std::uint32_t r, std::uint64_t k48) {
  return feistel(r, split6(k48), fast_tables());
}
std::uint32_t f_function_ref(std::uint32_t r, std::uint64_t k48) {
  return feistel_ref(r, k48);
}

std::uint64_t initial_permutation(std::uint64_t block) {
  return permute_bytes(fast_tables().ip, block);
}
std::uint64_t final_permutation(std::uint64_t block) {
  return permute_bytes(fast_tables().fp, block);
}
std::uint64_t initial_permutation_ref(std::uint64_t block) {
  return permute<64, 64>(block, kIP);
}
std::uint64_t final_permutation_ref(std::uint64_t block) {
  return permute<64, 64>(block, kFP);
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store_be64(std::uint64_t v, std::uint8_t* p) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

}  // namespace wsp::des
