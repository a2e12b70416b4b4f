#include "crypto/aes.h"

#include <stdexcept>

namespace wsp::aes {

namespace {

std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = tables().sbox;
  return (static_cast<std::uint32_t>(s[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(s[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(s[(w >> 8) & 0xff]) << 8) |
         s[w & 0xff];
}

// --- reference round operations on a 16-byte column-major state ----------
// state[4*c + r] is the byte at row r, column c (FIPS-197 layout when the
// input is copied column by column).

void add_round_key(std::uint8_t state[16], const std::uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    state[4 * c + 0] ^= static_cast<std::uint8_t>(rk[c] >> 24);
    state[4 * c + 1] ^= static_cast<std::uint8_t>(rk[c] >> 16);
    state[4 * c + 2] ^= static_cast<std::uint8_t>(rk[c] >> 8);
    state[4 * c + 3] ^= static_cast<std::uint8_t>(rk[c]);
  }
}

void sub_bytes(std::uint8_t state[16], const std::array<std::uint8_t, 256>& box) {
  for (int i = 0; i < 16; ++i) state[i] = box[state[i]];
}

void shift_rows(std::uint8_t state[16]) {
  for (int r = 1; r < 4; ++r) {
    std::uint8_t row[4];
    for (int c = 0; c < 4; ++c) row[c] = state[4 * ((c + r) % 4) + r];
    for (int c = 0; c < 4; ++c) state[4 * c + r] = row[c];
  }
}

void inv_shift_rows(std::uint8_t state[16]) {
  for (int r = 1; r < 4; ++r) {
    std::uint8_t row[4];
    for (int c = 0; c < 4; ++c) row[c] = state[4 * ((c + 4 - r) % 4) + r];
    for (int c = 0; c < 4; ++c) state[4 * c + r] = row[c];
  }
}

void mix_columns(std::uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = state + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void inv_mix_columns(std::uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = state + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gf_mul(a0, 14) ^ gf_mul(a1, 11) ^
                                       gf_mul(a2, 13) ^ gf_mul(a3, 9));
    col[1] = static_cast<std::uint8_t>(gf_mul(a0, 9) ^ gf_mul(a1, 14) ^
                                       gf_mul(a2, 11) ^ gf_mul(a3, 13));
    col[2] = static_cast<std::uint8_t>(gf_mul(a0, 13) ^ gf_mul(a1, 9) ^
                                       gf_mul(a2, 14) ^ gf_mul(a3, 11));
    col[3] = static_cast<std::uint8_t>(gf_mul(a0, 11) ^ gf_mul(a1, 13) ^
                                       gf_mul(a2, 9) ^ gf_mul(a3, 14));
  }
}

}  // namespace

// S-box built from the multiplicative inverse in GF(2^8) followed by the
// affine transform, per FIPS-197; the word tables from gf_mul.
Tables build_tables() {
  Tables t{};
  // Log/antilog tables over generator 3.
  std::array<std::uint8_t, 256> alog{};
  std::array<std::uint8_t, 256> log{};
  std::uint8_t p = 1;
  for (int i = 0; i < 255; ++i) {
    alog[static_cast<std::size_t>(i)] = p;
    log[p] = static_cast<std::uint8_t>(i);
    p = static_cast<std::uint8_t>(p ^ xtime(p));  // multiply by 3
  }
  auto inverse = [&](std::uint8_t a) -> std::uint8_t {
    if (a == 0) return 0;
    return alog[static_cast<std::size_t>((255 - log[a]) % 255)];
  };
  for (int v = 0; v < 256; ++v) {
    const std::uint8_t inv = inverse(static_cast<std::uint8_t>(v));
    std::uint8_t s = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const int b = ((inv >> bit) & 1) ^ ((inv >> ((bit + 4) % 8)) & 1) ^
                    ((inv >> ((bit + 5) % 8)) & 1) ^
                    ((inv >> ((bit + 6) % 8)) & 1) ^
                    ((inv >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
      s |= static_cast<std::uint8_t>(b << bit);
    }
    t.sbox[static_cast<std::size_t>(v)] = s;
    t.inv_sbox[s] = static_cast<std::uint8_t>(v);
  }
  // Row 0 holds one byte's column contribution; rows 1..3 rotate it.
  auto rotations = [](WordTables& tab, std::size_t v, std::uint32_t w) {
    tab[0][v] = w;
    tab[1][v] = (w >> 8) | (w << 24);
    tab[2][v] = (w >> 16) | (w << 16);
    tab[3][v] = (w >> 24) | (w << 8);
  };
  for (std::size_t v = 0; v < 256; ++v) {
    // Encryption: (2s, s, s, 3s) of the substituted byte.
    const std::uint8_t s = t.sbox[v];
    rotations(t.te, v,
              (std::uint32_t(gf_mul(s, 2)) << 24) | (std::uint32_t(s) << 16) |
                  (std::uint32_t(s) << 8) | gf_mul(s, 3));
    // InvMixColumns: (14b, 9b, 13b, 11b).
    const auto b = static_cast<std::uint8_t>(v);
    rotations(t.u, v,
              (std::uint32_t(gf_mul(b, 14)) << 24) |
                  (std::uint32_t(gf_mul(b, 9)) << 16) |
                  (std::uint32_t(gf_mul(b, 13)) << 8) | gf_mul(b, 11));
  }
  return t;
}

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t r = 0;
  while (b) {
    if (b & 1) r ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return r;
}

KeySchedule key_schedule(const std::uint8_t* key, std::size_t key_len) {
  int nk;
  int rounds;
  switch (key_len) {
    case 16: nk = 4; rounds = 10; break;
    case 24: nk = 6; rounds = 12; break;
    case 32: nk = 8; rounds = 14; break;
    default: throw std::invalid_argument("aes: key must be 16/24/32 bytes");
  }
  KeySchedule ks;
  ks.rounds = rounds;
  ks.round_keys.resize(static_cast<std::size_t>(4 * (rounds + 1)));
  for (int i = 0; i < nk; ++i) {
    ks.round_keys[static_cast<std::size_t>(i)] = load_be32(key + 4 * i);
  }
  std::uint32_t rcon = 0x01000000;
  for (int i = nk; i < 4 * (rounds + 1); ++i) {
    std::uint32_t t = ks.round_keys[static_cast<std::size_t>(i - 1)];
    if (i % nk == 0) {
      t = sub_word((t << 8) | (t >> 24)) ^ rcon;
      rcon = static_cast<std::uint32_t>(xtime(static_cast<std::uint8_t>(rcon >> 24)))
             << 24;
    } else if (nk > 6 && i % nk == 4) {
      t = sub_word(t);
    }
    ks.round_keys[static_cast<std::size_t>(i)] =
        ks.round_keys[static_cast<std::size_t>(i - nk)] ^ t;
  }
  return ks;
}

KeySchedule key_schedule(const std::vector<std::uint8_t>& key) {
  return key_schedule(key.data(), key.size());
}

void encrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks) {
  std::uint8_t state[16];
  for (int i = 0; i < 16; ++i) state[i] = in[i];
  const std::uint32_t* rk = ks.round_keys.data();
  add_round_key(state, rk);
  for (int round = 1; round < ks.rounds; ++round) {
    sub_bytes(state, tables().sbox);
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, rk + 4 * round);
  }
  sub_bytes(state, tables().sbox);
  shift_rows(state);
  add_round_key(state, rk + 4 * ks.rounds);
  for (int i = 0; i < 16; ++i) out[i] = state[i];
}

void decrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks) {
  std::uint8_t state[16];
  for (int i = 0; i < 16; ++i) state[i] = in[i];
  const std::uint32_t* rk = ks.round_keys.data();
  add_round_key(state, rk + 4 * ks.rounds);
  for (int round = ks.rounds - 1; round >= 1; --round) {
    inv_shift_rows(state);
    sub_bytes(state, tables().inv_sbox);
    add_round_key(state, rk + 4 * round);
    inv_mix_columns(state);
  }
  inv_shift_rows(state);
  sub_bytes(state, tables().inv_sbox);
  add_round_key(state, rk);
  for (int i = 0; i < 16; ++i) out[i] = state[i];
}

void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks) {
  const Tables& t = tables();
  const std::uint32_t* rk = ks.round_keys.data();
  std::uint32_t s0 = load_be32(in + 0) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  for (int round = 1; round < ks.rounds; ++round) {
    encrypt_round(s0, s1, s2, s3, rk + 4 * round, t);
  }
  encrypt_final_round(s0, s1, s2, s3, rk + 4 * ks.rounds, t, out);
}

void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks) {
  const Tables& t = tables();
  const std::uint32_t* rk = ks.round_keys.data();
  const std::uint32_t* k = rk + 4 * ks.rounds;
  std::uint32_t s0 = load_be32(in + 0) ^ k[0];
  std::uint32_t s1 = load_be32(in + 4) ^ k[1];
  std::uint32_t s2 = load_be32(in + 8) ^ k[2];
  std::uint32_t s3 = load_be32(in + 12) ^ k[3];
  for (int round = ks.rounds - 1; round >= 1; --round) {
    decrypt_round(s0, s1, s2, s3, rk + 4 * round, t);
  }
  decrypt_final_round(s0, s1, s2, s3, rk, t, out);
}

namespace {
void check_len16(std::size_t n) {
  if (n % 16 != 0) throw std::invalid_argument("aes: length must be multiple of 16");
}
}  // namespace

std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 16) {
    encrypt_block(data.data() + i, out.data() + i, ks);
  }
  return out;
}

std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 16) {
    decrypt_block(data.data() + i, out.data() + i, ks);
  }
  return out;
}

std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  std::array<std::uint8_t, 16> chain = iv;
  std::uint8_t buf[16];
  for (std::size_t i = 0; i < data.size(); i += 16) {
    for (int b = 0; b < 16; ++b) {
      buf[b] = static_cast<std::uint8_t>(data[i + static_cast<std::size_t>(b)] ^
                                         chain[static_cast<std::size_t>(b)]);
    }
    encrypt_block(buf, out.data() + i, ks);
    for (int b = 0; b < 16; ++b) chain[static_cast<std::size_t>(b)] = out[i + static_cast<std::size_t>(b)];
  }
  return out;
}

std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  std::array<std::uint8_t, 16> chain = iv;
  std::uint8_t buf[16];
  for (std::size_t i = 0; i < data.size(); i += 16) {
    decrypt_block(data.data() + i, buf, ks);
    for (int b = 0; b < 16; ++b) {
      out[i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(buf[b] ^ chain[static_cast<std::size_t>(b)]);
      chain[static_cast<std::size_t>(b)] = data[i + static_cast<std::size_t>(b)];
    }
  }
  return out;
}

const std::array<std::uint8_t, 256>& sbox() { return tables().sbox; }
const std::array<std::uint8_t, 256>& inv_sbox() { return tables().inv_sbox; }

}  // namespace wsp::aes
