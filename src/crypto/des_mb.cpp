// Lane-interleaved DES/3DES-CBC: the fused pass of des.h (IP, one or
// three 16-round stages with a swap between them, FP) with the round loop
// outermost and the lane loop innermost.  The round function, the tables
// and the stage order all come from des.h, so width 1 is the scalar path.
#include "des_mb.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wsp::des_mb {
namespace {

using des::KeySchedule;

template <int Lanes>
struct Group {
  const KeySchedule* ks[Lanes][3];  ///< stage schedules in run order
  const std::uint8_t* in[Lanes];
  std::uint8_t* out[Lanes];
  std::uint8_t* chain[Lanes];
  std::size_t rem[Lanes];
  std::uint64_t c[Lanes];
  int active = 0;

  void add(const CbcLane& l, bool encrypt) {
    const int j = active;
    if (l.ks3 != nullptr) {
      const auto stages = des::stages_3des(*l.ks3, encrypt);
      std::copy(stages.begin(), stages.end(), ks[j]);
    } else {
      ks[j][0] = l.ks;
      ks[j][1] = ks[j][2] = nullptr;
    }
    in[j] = l.in;
    out[j] = l.out;
    chain[j] = l.chain;
    rem[j] = l.blocks;
    c[j] = des::load_be64(l.chain);
    ++active;
  }

  void compact() {
    for (int j = active - 1; j >= 0; --j) {
      if (rem[j] != 0) continue;
      des::store_be64(c[j], chain[j]);
      const int last = active - 1;
      if (j != last) {
        std::copy(ks[last], ks[last] + 3, ks[j]);
        in[j] = in[last];
        out[j] = out[last];
        chain[j] = chain[last];
        rem[j] = rem[last];
        c[j] = c[last];
      }
      --active;
    }
  }
};

// One lockstep CBC pass over a group; all lanes share the stage count
// (1 for DES, 3 for 3DES) so the swap points are uniform.
template <int Lanes>
void crypt_group(Group<Lanes>& g, int stages, bool encrypt) {
  const des::FastTables& t = des::fast_tables();
  std::uint32_t l[Lanes], r[Lanes];
  std::uint64_t x[Lanes];
  while (g.active > 0) {
    const int a = g.active;
    for (int j = 0; j < a; ++j) {
      x[j] = des::load_be64(g.in[j]);  // decrypt keeps it for chaining
      const std::uint64_t ip =
          des::permute_bytes(t.ip, encrypt ? x[j] ^ g.c[j] : x[j]);
      l[j] = std::uint32_t(ip >> 32);
      r[j] = std::uint32_t(ip);
    }
    for (int s = 0; s < stages; ++s) {
      if (s > 0) {
        for (int j = 0; j < a; ++j) std::swap(l[j], r[j]);
      }
      const int flip = des::stage_reversed(s, encrypt) ? 15 : 0;
      for (int i = 0; i < 16; i += 2) {
        for (int j = 0; j < a; ++j) {
          l[j] ^= des::feistel(r[j], g.ks[j][s]->k6[i ^ flip], t);
        }
        for (int j = 0; j < a; ++j) {
          r[j] ^= des::feistel(l[j], g.ks[j][s]->k6[(i + 1) ^ flip], t);
        }
      }
    }
    for (int j = 0; j < a; ++j) {
      std::uint64_t y =
          des::permute_bytes(t.fp, (std::uint64_t(r[j]) << 32) | l[j]);
      if (encrypt) {
        g.c[j] = y;  // residue = ciphertext just produced
      } else {
        y ^= g.c[j];    // CBC xor after the cipher
        g.c[j] = x[j];  // residue = ciphertext just consumed
      }
      des::store_be64(y, g.out[j]);
      g.in[j] += 8;
      g.out[j] += 8;
      --g.rem[j];
    }
    g.compact();
  }
}

// Partition a group's lanes into single-DES and 3DES runs (the stage count
// must be uniform inside one lockstep group).
template <int Lanes>
void run_partitioned(CbcLane* lanes, std::size_t n, bool encrypt) {
  for (int triple = 0; triple < 2; ++triple) {
    Group<Lanes> g;
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes[i].blocks == 0) continue;
      const bool is_triple = lanes[i].ks3 != nullptr;
      if (is_triple != (triple != 0)) continue;
      g.add(lanes[i], encrypt);
      if (g.active == Lanes) {
        crypt_group<Lanes>(g, triple ? 3 : 1, encrypt);
        g.active = 0;
      }
    }
    if (g.active > 0) crypt_group<Lanes>(g, triple ? 3 : 1, encrypt);
  }
}

void validate(const CbcLane* lanes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const CbcLane& l = lanes[i];
    if (l.blocks == 0) continue;
    if ((l.ks == nullptr && l.ks3 == nullptr) || l.in == nullptr ||
        l.out == nullptr || l.chain == nullptr) {
      throw std::invalid_argument("des_mb: null field in live lane");
    }
  }
}

void dispatch_width(CbcLane* lanes, std::size_t n, unsigned lane_width,
                    bool encrypt) {
  if (lane_width == 0 || lane_width > kMaxLanes) {
    throw std::invalid_argument("des_mb: lane_width must be in [1, 8]");
  }
  validate(lanes, n);
  if (n == 0) return;
  std::vector<CbcLane> work(lanes, lanes + n);
  std::sort(work.begin(), work.end(), [](const CbcLane& a, const CbcLane& b) {
    return a.blocks > b.blocks;
  });
  for (std::size_t off = 0; off < work.size(); off += lane_width) {
    const std::size_t cnt = std::min<std::size_t>(lane_width, work.size() - off);
    CbcLane* grp = work.data() + off;
    if (lane_width <= 1) {
      run_partitioned<1>(grp, cnt, encrypt);
    } else if (lane_width <= 2) {
      run_partitioned<2>(grp, cnt, encrypt);
    } else if (lane_width <= 4) {
      run_partitioned<4>(grp, cnt, encrypt);
    } else {
      run_partitioned<8>(grp, cnt, encrypt);
    }
  }
}

}  // namespace

template <int Lanes>
void encrypt_cbc(CbcLane* lanes, std::size_t n) {
  while (n > std::size_t(Lanes)) {
    run_partitioned<Lanes>(lanes, std::size_t(Lanes), true);
    lanes += Lanes;
    n -= Lanes;
  }
  run_partitioned<Lanes>(lanes, n, true);
}

template <int Lanes>
void decrypt_cbc(CbcLane* lanes, std::size_t n) {
  while (n > std::size_t(Lanes)) {
    run_partitioned<Lanes>(lanes, std::size_t(Lanes), false);
    lanes += Lanes;
    n -= Lanes;
  }
  run_partitioned<Lanes>(lanes, n, false);
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
  dispatch_width(lanes, n, lane_width, true);
}

void decrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width) {
  dispatch_width(lanes, n, lane_width, false);
}

}  // namespace wsp::des_mb
