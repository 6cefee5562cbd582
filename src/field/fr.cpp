#include "field/fr.h"

#include <cassert>
#include <stdexcept>

#include "util/bytes.h"
#include "util/check.h"

namespace wakurln::field {

namespace {

using u64 = std::uint64_t;
// __int128 is a GCC/Clang extension; __extension__ keeps -Wpedantic quiet
// without disabling the diagnostic for anything else.
__extension__ typedef unsigned __int128 u128;
using Limbs = std::array<u64, 4>;

// BN254 scalar field modulus, little-endian limbs.
constexpr Limbs kModulus = {0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
                            0xb85045b68181585dULL, 0x30644e72e131a029ULL};

// -r^{-1} mod 2^64, computed at compile time by Newton iteration.
constexpr u64 compute_n0_inv() {
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - kModulus[0] * inv;
  }
  return ~inv + 1;  // negate mod 2^64
}
constexpr u64 kN0Inv = compute_n0_inv();

constexpr bool geq(const Limbs& a, const Limbs& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// a -= b, assuming a >= b.
constexpr void sub_in_place(Limbs& a, const Limbs& b) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(d);
    borrow = static_cast<u64>((d >> 64) & 1);
  }
}

// a += a (doubling with reduction), used only for constant generation.
constexpr void double_mod(Limbs& a) {
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 hi = a[i] >> 63;
    a[i] = (a[i] << 1) | carry;
    carry = hi;
  }
  if (carry != 0 || geq(a, kModulus)) sub_in_place(a, kModulus);
}

// 2^e mod r by repeated doubling, for constant generation.
constexpr Limbs pow2_mod(int e) {
  Limbs x = {1, 0, 0, 0};
  for (int i = 0; i < e; ++i) double_mod(x);
  return x;
}
// R = 2^256 mod r == Montgomery form of 1.
constexpr Limbs kOneMont = pow2_mod(256);
// R^2, for Montgomery conversion: to_mont(a) = mont_mul(a, R2).
constexpr Limbs kR2 = pow2_mod(512);
// R^3, for inversion: the integer inverse of the limbs x = aR is
// a^-1 R^-1, and mont_mul(a^-1 R^-1, R3) = a^-1 R.
constexpr Limbs kR3 = pow2_mod(768);

// One outer CIOS iteration: t += a * bi, then one Montgomery reduction
// step (add m * r with m = t[0] * n0inv and shift one limb).
inline void mont_iter(u64 t[6], const Limbs& a, u64 bi) {
  // t += a * bi
  u128 carry = 0;
  for (int j = 0; j < 4; ++j) {
    const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
    t[j] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
  u128 cur = static_cast<u128>(t[4]) + carry;
  t[4] = static_cast<u64>(cur);
  t[5] = static_cast<u64>(cur >> 64);

  // reduce: add m * r where m = t[0] * n0inv, then shift one limb
  const u64 m = t[0] * kN0Inv;
  cur = static_cast<u128>(t[0]) + static_cast<u128>(m) * kModulus[0];
  carry = cur >> 64;
  for (int j = 1; j < 4; ++j) {
    cur = static_cast<u128>(t[j]) + static_cast<u128>(m) * kModulus[j] + carry;
    t[j - 1] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
  cur = static_cast<u128>(t[4]) + carry;
  t[3] = static_cast<u64>(cur);
  t[4] = t[5] + static_cast<u64>(cur >> 64);
}

// Final conditional subtraction back into canonical range.
inline void mont_finish(const u64 t[6], Limbs& out) {
  Limbs r = {t[0], t[1], t[2], t[3]};
  if (t[4] != 0 || geq(r, kModulus)) sub_in_place(r, kModulus);
  out = r;
}

// CIOS Montgomery multiplication: out = a * b * R^{-1} mod r.
// Inputs must be < r.
void mont_mul(const Limbs& a, const Limbs& b, Limbs& out) {
  u64 t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) mont_iter(t, a, b[i]);
  mont_finish(t, out);
}

void add_mod(const Limbs& a, const Limbs& b, Limbs& out) {
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  if (carry != 0 || geq(out, kModulus)) sub_in_place(out, kModulus);
}

void sub_mod(const Limbs& a, const Limbs& b, Limbs& out) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<u64>(d);
    borrow = static_cast<u64>((d >> 64) & 1);
  }
  if (borrow != 0) {
    u64 carry = 0;
    for (int i = 0; i < 4; ++i) {
      const u128 s = static_cast<u128>(out[i]) + kModulus[i] + carry;
      out[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
}

// a >>= 1.
void shr1(Limbs& a) {
  for (int i = 0; i < 3; ++i) a[i] = (a[i] >> 1) | (a[i + 1] << 63);
  a[3] >>= 1;
}

// a = a / 2 mod r for a < r: an odd a is first made even by adding r,
// which cannot carry out because r < 2^254.
void half_mod(Limbs& a) {
  if (a[0] & 1) {
    u64 carry = 0;
    for (int i = 0; i < 4; ++i) {
      const u128 s = static_cast<u128>(a[i]) + kModulus[i] + carry;
      a[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
  shr1(a);
}

// Reduce an arbitrary 256-bit value (< 2^256) to canonical range [0, r).
// 2^256 / r < 6, so a handful of conditional subtractions suffice.
void reduce_canonical(Limbs& a) {
  while (geq(a, kModulus)) sub_in_place(a, kModulus);
}

Limbs bytes_be_to_limbs(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != Fr::kByteSize) {
    throw std::invalid_argument("Fr: expected 32 bytes");
  }
  Limbs out = {0, 0, 0, 0};
  for (int i = 0; i < 32; ++i) {
    out[3 - i / 8] |= static_cast<u64>(bytes[i]) << (8 * (7 - i % 8));
  }
  return out;
}

}  // namespace

// Friend of Fr: constructs elements directly from raw Montgomery limbs.
struct FrDetail {
  static Fr make(const Limbs& limbs) { return Fr(limbs); }
};

Fr Fr::one() {
  return FrDetail::make(kOneMont);
}

Fr Fr::from_u64(std::uint64_t v) {
  Limbs x = {v, 0, 0, 0};
  Limbs out;
  mont_mul(x, kR2, out);
  return FrDetail::make(out);
}

Fr Fr::from_bytes_be(std::span<const std::uint8_t> bytes) {
  Limbs x = bytes_be_to_limbs(bytes);
  reduce_canonical(x);
  Limbs out;
  mont_mul(x, kR2, out);
  return FrDetail::make(out);
}

std::optional<Fr> Fr::from_bytes_canonical(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kByteSize) return std::nullopt;
  Limbs x = bytes_be_to_limbs(bytes);
  if (geq(x, kModulus)) return std::nullopt;
  Limbs out;
  mont_mul(x, kR2, out);
  return FrDetail::make(out);
}

Fr Fr::random(util::Rng& rng) {
  // Rejection sampling on the top limb keeps the distribution uniform.
  while (true) {
    Limbs x;
    for (auto& l : x) l = rng.next_u64();
    x[3] &= (1ULL << 62) - 1;  // trim to < 2^254; modulus is ~2^253.5
    if (geq(x, kModulus)) continue;
    Limbs out;
    mont_mul(x, kR2, out);
    return FrDetail::make(out);
  }
}

std::array<std::uint8_t, Fr::kByteSize> Fr::modulus_bytes_be() {
  std::array<std::uint8_t, kByteSize> out{};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(kModulus[3 - i / 8] >> (8 * (7 - i % 8)));
  }
  return out;
}

Fr Fr::operator+(const Fr& o) const {
  Limbs out;
  add_mod(limbs_, o.limbs_, out);
  return FrDetail::make(out);
}

Fr Fr::operator-(const Fr& o) const {
  Limbs out;
  sub_mod(limbs_, o.limbs_, out);
  return FrDetail::make(out);
}

Fr Fr::operator*(const Fr& o) const {
  Limbs out;
  mont_mul(limbs_, o.limbs_, out);
  return FrDetail::make(out);
}

Fr Fr::operator-() const {
  if (is_zero()) return *this;
  Limbs out = kModulus;
  sub_in_place(out, limbs_);
  return FrDetail::make(out);
}

Fr Fr::square() const {
  return *this * *this;
}

Fr Fr::pow(const std::array<std::uint64_t, 4>& exp_limbs) const {
  Fr result = Fr::one();
  Fr base = *this;
  bool started = false;
  for (int limb = 3; limb >= 0; --limb) {
    for (int bit = 63; bit >= 0; --bit) {
      if (started) result = result.square();
      if ((exp_limbs[limb] >> bit) & 1) {
        result = result * base;
        started = true;
      }
    }
  }
  return result;
}

Fr Fr::pow(std::uint64_t exp) const {
  return pow(std::array<std::uint64_t, 4>{exp, 0, 0, 0});
}

Fr Fr::inverse() const {
  if (is_zero()) {
    throw std::domain_error("Fr::inverse: zero has no inverse");
  }
  // Binary extended Euclid (Hankerson-Menezes-Vanstone, Alg. 2.22) on
  // the limbs x = aR as an integer: u = x1 * x and v = x2 * x (mod r)
  // hold throughout, and gcd(u, v) = 1, so one of u, v reaches 1.
  const Limbs one = {1, 0, 0, 0};
  Limbs u = limbs_;
  Limbs v = kModulus;
  Limbs x1 = one;
  Limbs x2 = {0, 0, 0, 0};
  while (u != one && v != one) {
    while ((u[0] & 1) == 0) {
      shr1(u);
      half_mod(x1);
    }
    while ((v[0] & 1) == 0) {
      shr1(v);
      half_mod(x2);
    }
    if (geq(u, v)) {
      sub_in_place(u, v);
      sub_mod(x1, x2, x1);
    } else {
      sub_in_place(v, u);
      sub_mod(x2, x1, x2);
    }
  }
  Limbs out;
  mont_mul(u == one ? x1 : x2, kR3, out);
  return FrDetail::make(out);
}

namespace {

// acc += a * b as a full 512-bit product (schoolbook 4x4) — the
// accumulate step of the fused matrix kernel. Callers bound the term
// count so the sum stays below 2^512 (16 * r^2 is about 2^511.2).
inline void acc_add_mul(u64 acc[8], const Limbs& a, const Limbs& b) {
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * b[i] + acc[i + j] + carry;
      acc[i + j] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    // Propagate into the upper limbs; within the term bound the sum
    // stays below 2^512, so no carry ever leaves acc[7].
    u64 c = static_cast<u64>(carry);
    for (int k = i + 4; c != 0 && k < 8; ++k) {
      const u128 cur = static_cast<u128>(acc[k]) + c;
      acc[k] = static_cast<u64>(cur);
      c = static_cast<u64>(cur >> 64);
    }
  }
}

// One round of the 512-bit Montgomery reduction: m = t[i] * n0inv;
// t += m * r << (64 * i). Factored (like mont_iter) so every interleaved
// row executes the same schedule.
inline void acc_reduce_round(u64 t[9], int i) {
  const u64 m = t[i] * kN0Inv;
  u128 carry = 0;
  for (int j = 0; j < 4; ++j) {
    const u128 cur =
        static_cast<u128>(t[i + j]) + static_cast<u128>(m) * kModulus[j] + carry;
    t[i + j] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
  for (int k = i + 4; carry != 0 && k < 9; ++k) {
    const u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
}

// Canonicalises the reduced accumulator t[4..7]. Within the term bound
// the value is < 2^256 (t[8] == 0) and < 6r, so a short subtraction
// loop suffices.
inline void acc_reduce_finish(const u64 t[9], Limbs& out) {
  WAKURLN_DCHECK(t[8] == 0);
  Limbs r = {t[4], t[5], t[6], t[7]};
  while (geq(r, kModulus)) sub_in_place(r, kModulus);
  out = r;
}

}  // namespace

void Fr::mat3_mul_fused(const std::array<std::array<Fr, 3>, 3>& m,
                        const std::array<Fr, 3>& v, std::array<Fr, 3>& out) {
  // Three rows, three independent accumulate-then-reduce chains,
  // interleaved so the core can overlap the 64x64 multiplies across rows.
  // Per row the result is acc * R^{-1} mod r — exactly
  // sum(mont_mul(m_ij, v_j)) mod r — stored canonically, so each output
  // is bit-identical to the scalar mul/add chain.
  u64 r0[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
  u64 r1[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
  u64 r2[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
  for (int j = 0; j < 3; ++j) {
    const Limbs& vj = v[static_cast<std::size_t>(j)].limbs_;
    acc_add_mul(r0, m[0][static_cast<std::size_t>(j)].limbs_, vj);
    acc_add_mul(r1, m[1][static_cast<std::size_t>(j)].limbs_, vj);
    acc_add_mul(r2, m[2][static_cast<std::size_t>(j)].limbs_, vj);
  }
  for (int i = 0; i < 4; ++i) {
    acc_reduce_round(r0, i);
    acc_reduce_round(r1, i);
    acc_reduce_round(r2, i);
  }
  Limbs o0, o1, o2;
  acc_reduce_finish(r0, o0);
  acc_reduce_finish(r1, o1);
  acc_reduce_finish(r2, o2);
  out[0] = FrDetail::make(o0);
  out[1] = FrDetail::make(o1);
  out[2] = FrDetail::make(o2);
}

bool Fr::is_zero() const {
  return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
}

std::array<std::uint8_t, Fr::kByteSize> Fr::to_bytes_be() const {
  // Convert out of Montgomery form: mont_mul(a, 1).
  Limbs one = {1, 0, 0, 0};
  Limbs canon;
  mont_mul(limbs_, one, canon);
  std::array<std::uint8_t, kByteSize> out{};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(canon[3 - i / 8] >> (8 * (7 - i % 8)));
  }
  return out;
}

std::string Fr::to_hex() const {
  const auto b = to_bytes_be();
  return util::to_hex(b);
}

std::uint64_t Fr::hash64() const {
  // splitmix-style mixing over the Montgomery limbs (equality-compatible).
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& l : limbs_) {
    std::uint64_t z = h ^ l;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

}  // namespace wakurln::field
