#include "tie/custom.h"

#include <stdexcept>

#include "crypto/aes.h"
#include "crypto/des.h"
#include "sim/cpu.h"

namespace wsp::tie {

using isa::Instr;
using sim::Cpu;
using sim::CustomInstr;

namespace {

std::uint16_t add_id(int k) {
  switch (k) {
    case 2: return kAdd2;
    case 4: return kAdd4;
    case 8: return kAdd8;
    case 16: return kAdd16;
    default: throw std::invalid_argument("add_k: k must be 2/4/8/16");
  }
}

std::uint16_t sub_id(int k) {
  switch (k) {
    case 2: return kSub2;
    case 4: return kSub4;
    case 8: return kSub8;
    case 16: return kSub16;
    default: throw std::invalid_argument("sub_k: k must be 2/4/8/16");
  }
}

std::uint16_t mac_id(int m) {
  switch (m) {
    case 1: return kMac1;
    case 2: return kMac2;
    case 4: return kMac4;
    case 8: return kMac8;
    default: throw std::invalid_argument("mac_m: m must be 1/2/4/8");
  }
}

}  // namespace

sim::CustomInstr make_ur_load() {
  CustomInstr ci;
  ci.id = kUrLoad;
  ci.name = "ur_load";
  ci.latency = 1;  // plus imm/4 data cycles on the 128-bit bus (added below)
  ci.area = default_area_model().ur_transfer();
  ci.execute = [](Cpu& cpu, const Instr& in) {
    cpu.add_cycles(static_cast<std::uint64_t>((in.imm + 3) / 4));
    const std::uint32_t base = cpu.reg(in.rs1);
    for (std::int32_t w = 0; w < in.imm; ++w) {
      cpu.set_ur(in.rd, static_cast<unsigned>(w),
                 cpu.custom_load32(base + 4 * static_cast<std::uint32_t>(w)));
    }
  };
  return ci;
}

sim::CustomInstr make_ur_store() {
  CustomInstr ci;
  ci.id = kUrStore;
  ci.name = "ur_store";
  ci.latency = 1;  // plus imm/4 data cycles on the 128-bit bus (added below)
  ci.area = default_area_model().ur_transfer();
  ci.execute = [](Cpu& cpu, const Instr& in) {
    cpu.add_cycles(static_cast<std::uint64_t>((in.imm + 3) / 4));
    const std::uint32_t base = cpu.reg(in.rs1);
    for (std::int32_t w = 0; w < in.imm; ++w) {
      cpu.custom_store32(base + 4 * static_cast<std::uint32_t>(w),
                         cpu.ur(in.rd, static_cast<unsigned>(w)));
    }
  };
  return ci;
}

namespace {

// Shared semantics of add_k / sub_k: UR[kUrR] = UR[kUrA] op UR[kUrB] with a
// carry/borrow flag chained through UR[kUrFlags][0].  `imm` = word count of
// this invocation (<= k).
CustomInstr make_addsub(std::uint16_t id, const char* base_name, int k, bool subtract) {
  CustomInstr ci;
  ci.id = id;
  ci.name = std::string(base_name) + "_" + std::to_string(k);
  ci.latency = 1;
  ci.area = default_area_model().wide_adder(k);
  ci.execute = [subtract](Cpu& cpu, const Instr& in) {
    std::uint32_t carry = cpu.ur(kUrFlags, 0);
    for (std::int32_t w = 0; w < in.imm; ++w) {
      const std::uint64_t a = cpu.ur(kUrA, static_cast<unsigned>(w));
      const std::uint64_t b = cpu.ur(kUrB, static_cast<unsigned>(w));
      std::uint64_t r;
      if (subtract) {
        r = a - b - carry;
        carry = (r >> 32) & 1;
      } else {
        r = a + b + carry;
        carry = static_cast<std::uint32_t>(r >> 32);
      }
      cpu.set_ur(kUrR, static_cast<unsigned>(w), static_cast<std::uint32_t>(r));
    }
    cpu.set_ur(kUrFlags, 0, carry);
  };
  return ci;
}

}  // namespace

sim::CustomInstr make_add_k(int k) { return make_addsub(add_id(k), "add", k, false); }
sim::CustomInstr make_sub_k(int k) { return make_addsub(sub_id(k), "sub", k, true); }

sim::CustomInstr make_mac_m(int m) {
  CustomInstr ci;
  ci.id = mac_id(m);
  ci.name = "mac_" + std::to_string(m);
  // One cycle issue; the multiplier array is pipelined, result forwarded.
  ci.latency = 2;
  ci.area = default_area_model().mac_unit(m);
  ci.execute = [](Cpu& cpu, const Instr& in) {
    const std::uint64_t b = cpu.reg(in.rs1);
    std::uint64_t carry = cpu.ur(kUrMacCarry, 0);
    for (std::int32_t w = 0; w < in.imm; ++w) {
      const std::uint64_t p =
          static_cast<std::uint64_t>(cpu.ur(kUrA, static_cast<unsigned>(w))) * b +
          cpu.ur(kUrB, static_cast<unsigned>(w)) + carry;
      cpu.set_ur(kUrB, static_cast<unsigned>(w), static_cast<std::uint32_t>(p));
      carry = p >> 32;
    }
    cpu.set_ur(kUrMacCarry, 0, static_cast<std::uint32_t>(carry));
  };
  return ci;
}

namespace {

CustomInstr make_des_perm(std::uint16_t id, const char* name, bool fp, bool hi) {
  CustomInstr ci;
  ci.id = id;
  ci.name = name;
  ci.latency = 1;
  ci.area = default_area_model().des_perm_half();
  ci.execute = [fp, hi](Cpu& cpu, const Instr& in) {
    const std::uint64_t block =
        (static_cast<std::uint64_t>(cpu.reg(in.rs1)) << 32) | cpu.reg(in.rs2);
    const std::uint64_t out =
        fp ? des::final_permutation(block) : des::initial_permutation(block);
    cpu.set_reg(in.rd, static_cast<std::uint32_t>(hi ? out >> 32 : out));
  };
  return ci;
}

}  // namespace

sim::CustomInstr make_des_ip_hi() { return make_des_perm(kDesIpHi, "des_ip_hi", false, true); }
sim::CustomInstr make_des_ip_lo() { return make_des_perm(kDesIpLo, "des_ip_lo", false, false); }
sim::CustomInstr make_des_fp_hi() { return make_des_perm(kDesFpHi, "des_fp_hi", true, true); }
sim::CustomInstr make_des_fp_lo() { return make_des_perm(kDesFpLo, "des_fp_lo", true, false); }

sim::CustomInstr make_des_round() {
  CustomInstr ci;
  ci.id = kDesRound;
  ci.name = "des_round";
  ci.latency = 2;  // subkey fetch + S-box/permute datapath
  ci.area = default_area_model().des_round_unit();
  ci.execute = [](Cpu& cpu, const Instr& in) {
    // rs1 = R half; rs2 = address of the round's 48-bit subkey stored as
    // two words (hi 24 bits, lo 24 bits).
    const std::uint32_t key_addr = cpu.reg(in.rs2);
    const std::uint64_t k48 =
        (static_cast<std::uint64_t>(cpu.custom_load32(key_addr)) << 24) |
        cpu.custom_load32(key_addr + 4);
    cpu.set_reg(in.rd, des::f_function(cpu.reg(in.rs1), k48));
  };
  return ci;
}

sim::CustomInstr make_aes_sbox4() {
  CustomInstr ci;
  ci.id = kAesSbox4;
  ci.name = "aes_sbox4";
  ci.latency = 1;
  ci.area = default_area_model().aes_sbox4_unit();
  ci.execute = [](Cpu& cpu, const Instr& in) {
    const auto& sb = aes::sbox();
    const std::uint32_t v = cpu.reg(in.rs1);
    cpu.set_reg(in.rd, (static_cast<std::uint32_t>(sb[(v >> 24) & 0xff]) << 24) |
                           (static_cast<std::uint32_t>(sb[(v >> 16) & 0xff]) << 16) |
                           (static_cast<std::uint32_t>(sb[(v >> 8) & 0xff]) << 8) |
                           sb[v & 0xff]);
  };
  return ci;
}

sim::CustomInstr make_aes_mixcol() {
  CustomInstr ci;
  ci.id = kAesMixCol;
  ci.name = "aes_mixcol";
  ci.latency = 1;
  ci.area = default_area_model().aes_mixcol_unit();
  ci.execute = [](Cpu& cpu, const Instr& in) {
    const std::uint32_t v = cpu.reg(in.rs1);
    std::uint8_t col[4] = {static_cast<std::uint8_t>(v >> 24),
                           static_cast<std::uint8_t>(v >> 16),
                           static_cast<std::uint8_t>(v >> 8),
                           static_cast<std::uint8_t>(v)};
    std::uint8_t out[4];
    for (int i = 0; i < 4; ++i) {
      out[i] = static_cast<std::uint8_t>(
          aes::gf_mul(col[i & 3], 2) ^ aes::gf_mul(col[(i + 1) & 3], 3) ^
          col[(i + 2) & 3] ^ col[(i + 3) & 3]);
    }
    cpu.set_reg(in.rd, (static_cast<std::uint32_t>(out[0]) << 24) |
                           (static_cast<std::uint32_t>(out[1]) << 16) |
                           (static_cast<std::uint32_t>(out[2]) << 8) | out[3]);
  };
  return ci;
}

sim::CustomInstr make_aes_ld_state() {
  CustomInstr ci;
  ci.id = kAesLdState;
  ci.name = "aes_ld_state";
  ci.latency = 2;
  ci.area = default_area_model().ur_transfer();
  // rs1 = input block address; rs2 = round-0 key address (the initial
  // AddRoundKey is folded into the load, as a merged key-add datapath).
  ci.execute = [](Cpu& cpu, const Instr& in) {
    const std::uint32_t base = cpu.reg(in.rs1);
    const std::uint32_t key = cpu.reg(in.rs2);
    for (unsigned w = 0; w < 4; ++w) {
      cpu.set_ur(kUrAes, w,
                 cpu.custom_load32(base + 4 * w) ^ cpu.custom_load32(key + 4 * w));
    }
  };
  return ci;
}

sim::CustomInstr make_aes_st_state() {
  CustomInstr ci;
  ci.id = kAesStState;
  ci.name = "aes_st_state";
  ci.latency = 2;
  ci.area = default_area_model().ur_transfer();
  ci.execute = [](Cpu& cpu, const Instr& in) {
    const std::uint32_t base = cpu.reg(in.rs1);
    for (unsigned w = 0; w < 4; ++w) {
      cpu.custom_store32(base + 4 * w, cpu.ur(kUrAes, w));
    }
  };
  return ci;
}

namespace {

// Full encryption round on the UR AES state (big-endian packed columns, as
// in the T-table software path).  `final` skips MixColumns.
void aes_round_semantics(Cpu& cpu, const Instr& in, bool final) {
  const std::uint32_t key_addr = cpu.reg(in.rs1);
  std::uint32_t rk[4];
  for (unsigned w = 0; w < 4; ++w) rk[w] = cpu.custom_load32(key_addr + 4 * w);
  std::uint32_t n[4];
  for (unsigned w = 0; w < 4; ++w) n[w] = cpu.ur(kUrAes, w);
  if (final) {
    std::uint8_t block[16];
    aes::encrypt_final_round(n[0], n[1], n[2], n[3], rk, aes::tables(), block);
    for (unsigned w = 0; w < 4; ++w) n[w] = aes::load_be32(block + 4 * w);
  } else {
    aes::encrypt_round(n[0], n[1], n[2], n[3], rk, aes::tables());
  }
  for (unsigned w = 0; w < 4; ++w) cpu.set_ur(kUrAes, w, n[w]);
}

}  // namespace

sim::CustomInstr make_aes_round() {
  CustomInstr ci;
  ci.id = kAesRound;
  ci.name = "aes_round";
  ci.latency = 3;
  ci.area = default_area_model().aes_round_unit();
  ci.execute = [](Cpu& cpu, const Instr& in) { aes_round_semantics(cpu, in, false); };
  return ci;
}

sim::CustomInstr make_aes_final() {
  CustomInstr ci;
  ci.id = kAesFinal;
  ci.name = "aes_final";
  ci.latency = 3;
  // Shares the round unit's S-boxes; only the bypass path is extra.
  ci.area = default_area_model().control;
  ci.execute = [](Cpu& cpu, const Instr& in) { aes_round_semantics(cpu, in, true); };
  return ci;
}

sim::CustomSet full_custom_set() {
  sim::CustomSet set;
  set.add(make_ur_load());
  set.add(make_ur_store());
  for (int k : {2, 4, 8, 16}) {
    set.add(make_add_k(k));
    set.add(make_sub_k(k));
  }
  for (int m : {1, 2, 4, 8}) set.add(make_mac_m(m));
  set.add(make_des_ip_hi());
  set.add(make_des_ip_lo());
  set.add(make_des_fp_hi());
  set.add(make_des_fp_lo());
  set.add(make_des_round());
  set.add(make_aes_sbox4());
  set.add(make_aes_mixcol());
  set.add(make_aes_ld_state());
  set.add(make_aes_st_state());
  set.add(make_aes_round());
  set.add(make_aes_final());
  return set;
}

sim::CustomSet platform_custom_set() {
  sim::CustomSet set;
  set.add(make_ur_load());
  set.add(make_ur_store());
  set.add(make_add_k(8));
  set.add(make_sub_k(8));
  set.add(make_mac_m(4));
  set.add(make_des_ip_hi());
  set.add(make_des_ip_lo());
  set.add(make_des_fp_hi());
  set.add(make_des_fp_lo());
  set.add(make_des_round());
  set.add(make_aes_sbox4());
  set.add(make_aes_mixcol());
  return set;
}

}  // namespace wsp::tie
