// Lane-interleaved AES-CBC: the table-driven rounds of aes.h with the
// round loop outermost and a lane loop innermost.  Rounds and tables are
// aes.h's, so width 1 runs the same code as aes::encrypt_block and
// aes::decrypt_block; this file only adds the interleave and CBC chaining.
#include "aes_mb.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace wsp::aes_mb {
namespace {

using aes::load_be32;
using aes::store_be32;

// Live-lane working set for one lockstep group (uniform round count).
template <int Lanes>
struct Group {
  const std::uint32_t* rk[Lanes];
  const std::uint8_t* in[Lanes];
  std::uint8_t* out[Lanes];
  std::uint8_t* chain[Lanes];
  std::size_t rem[Lanes];
  std::uint32_t c0[Lanes], c1[Lanes], c2[Lanes], c3[Lanes];
  int active = 0;

  void add(const CbcLane& l) {
    rk[active] = l.ks->round_keys.data();
    in[active] = l.in;
    out[active] = l.out;
    chain[active] = l.chain;
    rem[active] = l.blocks;
    c0[active] = load_be32(l.chain);
    c1[active] = load_be32(l.chain + 4);
    c2[active] = load_be32(l.chain + 8);
    c3[active] = load_be32(l.chain + 12);
    ++active;
  }

  // Retire finished lanes: write their residue back and compact the prefix.
  void compact() {
    for (int j = active - 1; j >= 0; --j) {
      if (rem[j] != 0) continue;
      store_be32(c0[j], chain[j]);
      store_be32(c1[j], chain[j] + 4);
      store_be32(c2[j], chain[j] + 8);
      store_be32(c3[j], chain[j] + 12);
      const int last = active - 1;
      if (j != last) {
        rk[j] = rk[last];
        in[j] = in[last];
        out[j] = out[last];
        chain[j] = chain[last];
        rem[j] = rem[last];
        c0[j] = c0[last];
        c1[j] = c1[last];
        c2[j] = c2[last];
        c3[j] = c3[last];
      }
      --active;
    }
  }
};

template <int Lanes>
void encrypt_group(Group<Lanes>& g, int rounds) {
  const aes::Tables& t = aes::tables();
  std::uint32_t s0[Lanes], s1[Lanes], s2[Lanes], s3[Lanes];
  while (g.active > 0) {
    const int a = g.active;
    // CBC xor + AddRoundKey(0), all lanes.
    for (int j = 0; j < a; ++j) {
      const std::uint32_t* k = g.rk[j];
      s0[j] = (load_be32(g.in[j]) ^ g.c0[j]) ^ k[0];
      s1[j] = (load_be32(g.in[j] + 4) ^ g.c1[j]) ^ k[1];
      s2[j] = (load_be32(g.in[j] + 8) ^ g.c2[j]) ^ k[2];
      s3[j] = (load_be32(g.in[j] + 12) ^ g.c3[j]) ^ k[3];
    }
    for (int r = 1; r < rounds; ++r) {
      for (int j = 0; j < a; ++j) {
        aes::encrypt_round(s0[j], s1[j], s2[j], s3[j], g.rk[j] + 4 * r, t);
      }
    }
    // Final round, store, chain.
    for (int j = 0; j < a; ++j) {
      aes::encrypt_final_round(s0[j], s1[j], s2[j], s3[j], g.rk[j] + 4 * rounds,
                               t, g.out[j]);
      g.c0[j] = load_be32(g.out[j]);  // residue = ciphertext just produced
      g.c1[j] = load_be32(g.out[j] + 4);
      g.c2[j] = load_be32(g.out[j] + 8);
      g.c3[j] = load_be32(g.out[j] + 12);
      g.in[j] += 16;
      g.out[j] += 16;
      --g.rem[j];
    }
    g.compact();
  }
}

template <int Lanes>
void decrypt_group(Group<Lanes>& g, int rounds) {
  const aes::Tables& t = aes::tables();
  std::uint32_t s0[Lanes], s1[Lanes], s2[Lanes], s3[Lanes];
  std::uint32_t x0[Lanes], x1[Lanes], x2[Lanes], x3[Lanes];
  while (g.active > 0) {
    const int a = g.active;
    for (int j = 0; j < a; ++j) {
      const std::uint32_t* k = g.rk[j] + 4 * rounds;
      x0[j] = load_be32(g.in[j]);
      x1[j] = load_be32(g.in[j] + 4);
      x2[j] = load_be32(g.in[j] + 8);
      x3[j] = load_be32(g.in[j] + 12);
      s0[j] = x0[j] ^ k[0];
      s1[j] = x1[j] ^ k[1];
      s2[j] = x2[j] ^ k[2];
      s3[j] = x3[j] ^ k[3];
    }
    for (int r = rounds - 1; r >= 1; --r) {
      for (int j = 0; j < a; ++j) {
        aes::decrypt_round(s0[j], s1[j], s2[j], s3[j], g.rk[j] + 4 * r, t);
      }
    }
    // Final inverse round, with the CBC xor against the previous ciphertext
    // folded into its round key.
    for (int j = 0; j < a; ++j) {
      const std::uint32_t* k = g.rk[j];
      const std::uint32_t kc[4] = {k[0] ^ g.c0[j], k[1] ^ g.c1[j],
                                   k[2] ^ g.c2[j], k[3] ^ g.c3[j]};
      aes::decrypt_final_round(s0[j], s1[j], s2[j], s3[j], kc, t, g.out[j]);
      g.c0[j] = x0[j];
      g.c1[j] = x1[j];
      g.c2[j] = x2[j];
      g.c3[j] = x3[j];
      g.in[j] += 16;
      g.out[j] += 16;
      --g.rem[j];
    }
    g.compact();
  }
}

// Lanes in one group may carry different key sizes; the lockstep round loop
// needs a uniform count, so split the group into equal-rounds runs first.
template <int Lanes, typename Kernel>
void run_by_rounds(CbcLane* lanes, std::size_t n, Kernel kernel) {
  static constexpr int kRounds[3] = {10, 12, 14};
  for (int rounds : kRounds) {
    Group<Lanes> g;
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes[i].blocks == 0 || lanes[i].ks->rounds != rounds) continue;
      g.add(lanes[i]);
      if (g.active == Lanes) {
        kernel(g, rounds);
        g.active = 0;
      }
    }
    if (g.active > 0) kernel(g, rounds);
  }
}

void validate(const CbcLane* lanes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const CbcLane& l = lanes[i];
    if (l.blocks == 0) continue;
    if (l.ks == nullptr || l.in == nullptr || l.out == nullptr ||
        l.chain == nullptr) {
      throw std::invalid_argument("aes_mb: null field in live lane");
    }
    if (l.ks->rounds != 10 && l.ks->rounds != 12 && l.ks->rounds != 14) {
      throw std::invalid_argument("aes_mb: bad key schedule");
    }
  }
}

template <typename Fn1, typename Fn2, typename Fn4, typename Fn8>
void dispatch_width(CbcLane* lanes, std::size_t n, unsigned lane_width,
                    Fn1 f1, Fn2 f2, Fn4 f4, Fn8 f8) {
  if (lane_width == 0 || lane_width > kMaxLanes) {
    throw std::invalid_argument("aes_mb: lane_width must be in [1, 8]");
  }
  validate(lanes, n);
  if (n == 0) return;
  // Sort a working copy so groups hold similarly-sized streams: the active
  // prefix then shrinks late instead of dragging one long lane alone.
  std::vector<CbcLane> work(lanes, lanes + n);
  std::sort(work.begin(), work.end(), [](const CbcLane& a, const CbcLane& b) {
    return a.blocks > b.blocks;
  });
  for (std::size_t off = 0; off < work.size(); off += lane_width) {
    const std::size_t cnt = std::min<std::size_t>(lane_width, work.size() - off);
    CbcLane* grp = work.data() + off;
    if (lane_width <= 1) {
      f1(grp, cnt);
    } else if (lane_width <= 2) {
      f2(grp, cnt);
    } else if (lane_width <= 4) {
      f4(grp, cnt);
    } else {
      f8(grp, cnt);
    }
  }
}

}  // namespace

template <int Lanes>
void encrypt_cbc(CbcLane* lanes, std::size_t n) {
  while (n > Lanes) {
    encrypt_cbc<Lanes>(lanes, std::size_t(Lanes));
    lanes += Lanes;
    n -= Lanes;
  }
  run_by_rounds<Lanes>(lanes, n,
                       [](Group<Lanes>& g, int r) { encrypt_group<Lanes>(g, r); });
}

template <int Lanes>
void decrypt_cbc(CbcLane* lanes, std::size_t n) {
  while (n > Lanes) {
    decrypt_cbc<Lanes>(lanes, std::size_t(Lanes));
    lanes += Lanes;
    n -= Lanes;
  }
  run_by_rounds<Lanes>(lanes, n,
                       [](Group<Lanes>& g, int r) { decrypt_group<Lanes>(g, r); });
}

template void encrypt_cbc<1>(CbcLane*, std::size_t);
template void encrypt_cbc<2>(CbcLane*, std::size_t);
template void encrypt_cbc<4>(CbcLane*, std::size_t);
template void encrypt_cbc<8>(CbcLane*, std::size_t);
template void decrypt_cbc<1>(CbcLane*, std::size_t);
template void decrypt_cbc<2>(CbcLane*, std::size_t);
template void decrypt_cbc<4>(CbcLane*, std::size_t);
template void decrypt_cbc<8>(CbcLane*, std::size_t);

void encrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width) {
  dispatch_width(
      lanes, n, lane_width,
      [](CbcLane* l, std::size_t c) { encrypt_cbc<1>(l, c); },
      [](CbcLane* l, std::size_t c) { encrypt_cbc<2>(l, c); },
      [](CbcLane* l, std::size_t c) { encrypt_cbc<4>(l, c); },
      [](CbcLane* l, std::size_t c) { encrypt_cbc<8>(l, c); });
}

void decrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width) {
  dispatch_width(
      lanes, n, lane_width,
      [](CbcLane* l, std::size_t c) { decrypt_cbc<1>(l, c); },
      [](CbcLane* l, std::size_t c) { decrypt_cbc<2>(l, c); },
      [](CbcLane* l, std::size_t c) { decrypt_cbc<4>(l, c); },
      [](CbcLane* l, std::size_t c) { decrypt_cbc<8>(l, c); });
}

}  // namespace wsp::aes_mb
