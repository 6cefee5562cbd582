#pragma once
// Prime-field arithmetic over the BN254 (alt_bn128) scalar field
//
//   r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
//     = 0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001
//
// This is the field used by the RLN construction of the paper (Poseidon
// hashing, Shamir shares, Merkle tree nodes, zkSNARK public inputs).
// Elements are stored in Montgomery form (R = 2^256) with CIOS
// multiplication; all operations are allocation-free.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/rng.h"

namespace wakurln::field {

/// An element of the BN254 scalar field, stored in Montgomery form.
class Fr {
 public:
  /// Number of 64-bit limbs.
  static constexpr int kLimbs = 4;
  /// Canonical serialised size in bytes.
  static constexpr std::size_t kByteSize = 32;

  /// Zero element.
  constexpr Fr() : limbs_{0, 0, 0, 0} {}

  static Fr zero() { return Fr(); }
  static Fr one();

  /// Lifts a machine word into the field.
  static Fr from_u64(std::uint64_t v);

  /// Interprets 32 big-endian bytes as an integer and reduces mod r.
  static Fr from_bytes_be(std::span<const std::uint8_t> bytes);

  /// Strict parse: rejects values >= r. Returns nullopt if non-canonical.
  static std::optional<Fr> from_bytes_canonical(std::span<const std::uint8_t> bytes);

  /// Uniformly random element (rejection-sampled).
  static Fr random(util::Rng& rng);

  /// The field modulus as big-endian bytes (for documentation/tests).
  static std::array<std::uint8_t, kByteSize> modulus_bytes_be();

  Fr operator+(const Fr& o) const;
  Fr operator-(const Fr& o) const;
  Fr operator*(const Fr& o) const;
  Fr operator-() const;
  Fr& operator+=(const Fr& o) { return *this = *this + o; }
  Fr& operator-=(const Fr& o) { return *this = *this - o; }
  Fr& operator*=(const Fr& o) { return *this = *this * o; }

  Fr square() const;

  /// Modular exponentiation by a 256-bit exponent given as 4 LE limbs.
  Fr pow(const std::array<std::uint64_t, 4>& exp_limbs) const;
  Fr pow(std::uint64_t exp) const;

  /// Multiplicative inverse by binary extended Euclid on the Montgomery
  /// limbs, then one Montgomery product by R^3 mod r. Variable-time.
  /// Equal to pow(r - 2), which the tests keep as the oracle. Throws
  /// std::domain_error on zero.
  Fr inverse() const;

  /// Fused 3x3 matrix-vector product: out[i] = m[i][0]*v[0] + m[i][1]*v[1]
  /// + m[i][2]*v[2], each row accumulated as full 512-bit products with a
  /// single Montgomery reduction at the end, and the three independent
  /// row chains interleaved for instruction-level parallelism. Every row
  /// is bit-identical to the scalar mul/add chain because both are equal
  /// mod r and stored canonically. `out` must not alias `v`. This is the
  /// kernel of the Poseidon permutation's dense mixes.
  static void mat3_mul_fused(const std::array<std::array<Fr, 3>, 3>& m,
                             const std::array<Fr, 3>& v, std::array<Fr, 3>& out);

  bool is_zero() const;
  bool operator==(const Fr& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const Fr& o) const { return !(*this == o); }

  /// Canonical big-endian serialisation (value < r).
  std::array<std::uint8_t, kByteSize> to_bytes_be() const;

  /// Hex string of the canonical value (for logs and goldens).
  std::string to_hex() const;

  /// Stable 64-bit hash of the element (for unordered containers).
  std::uint64_t hash64() const;

  /// Raw Montgomery limbs (tests only).
  const std::array<std::uint64_t, 4>& raw_limbs() const { return limbs_; }

 private:
  explicit constexpr Fr(const std::array<std::uint64_t, 4>& limbs) : limbs_(limbs) {}

  friend struct FrDetail;  // implementation access (fr.cpp)

  std::array<std::uint64_t, 4> limbs_;
};

/// Hash functor so Fr can key unordered containers.
struct FrHash {
  std::size_t operator()(const Fr& f) const { return static_cast<std::size_t>(f.hash64()); }
};

}  // namespace wakurln::field
