#pragma once
// Poseidon-style algebraic hash over the BN254 scalar field.
//
// This is the `H(.)` of the paper: pk = H(sk), a1 = H(sk, epoch),
// internal nullifier = H(a1), and the Merkle tree node hash.
//
// Instance: t = 3 (capacity 1, rate 2), x^5 S-box, 8 full + 57 partial
// rounds — the standard parameterisation for ~254-bit fields at 128-bit
// security. Substitution note (DESIGN.md §2): round constants are derived
// from SHA-256 with a fixed ASCII seed ("nothing up my sleeve") and the MDS
// matrix is a Cauchy matrix, instead of the circomlib reference constants.
// The structure, cost and security rationale are those of Poseidon; exact
// circom compatibility is not needed by any experiment.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "field/fr.h"

namespace wakurln::hash {

/// Poseidon permutation parameters (fixed instance, exposed for tests).
struct PoseidonParams {
  static constexpr int kWidth = 3;          // t
  static constexpr int kFullRounds = 8;     // RF
  static constexpr int kPartialRounds = 57; // RP
  static constexpr int kAlpha = 5;          // S-box exponent

  /// Round constants, one per state element per round.
  std::vector<std::array<field::Fr, kWidth>> round_constants;
  /// MDS matrix (Cauchy construction, invertible).
  std::array<std::array<field::Fr, kWidth>, kWidth> mds;

  /// Deterministically derives the library-wide instance.
  static const PoseidonParams& instance();
};

/// Applies the Poseidon permutation to a width-3 state in place.
void poseidon_permute(std::array<field::Fr, PoseidonParams::kWidth>& state);

/// One-input hash: used for pk = H(sk) and nullifier = H(a1).
field::Fr poseidon_hash1(const field::Fr& a);

/// Two-input hash: used for a1 = H(sk, epoch) and Merkle node hashing.
field::Fr poseidon_hash2(const field::Fr& a, const field::Fr& b);

/// Applies the Poseidon permutation to many independent width-3 states.
/// Runs the identical per-state operation schedule as poseidon_permute
/// (S-boxes through Fr::mul_batch lanes, MDS rows through
/// Fr::mat3_mul_fused), so every output state is bit-identical to calling
/// poseidon_permute on it — poseidon_permute stays the executable
/// reference spec, pinned by tests/poseidon_test.cpp.
void poseidon_permute_batch(
    std::span<std::array<field::Fr, PoseidonParams::kWidth>> states);

/// Batched two-input hash: out[i] = poseidon_hash2(a[i], b[i]),
/// bit-identical per element. out may alias a or b.
void poseidon_hash2_batch(std::span<const field::Fr> a,
                          std::span<const field::Fr> b,
                          std::span<field::Fr> out);

}  // namespace wakurln::hash
