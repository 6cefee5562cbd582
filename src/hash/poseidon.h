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
//
// There is one permutation, poseidon_permute, on the optimised
// (sparse partial-round) schedule; the dense textbook schedule is the
// test oracle in tests/support/poseidon_reference.h.

#include <array>
#include <cstdint>
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
///
/// Runs the optimised schedule of the Poseidon paper (Grassi et al.,
/// USENIX Security 2021, Appendix B), derived once per process from
/// PoseidonParams::instance(): the partial rounds' constants on elements
/// 1 and 2 are carried forward (one constant per partial round, the
/// carry added to the second half's first full round), and the partial
/// rounds' MDS products are factored into sparse matrices (5 products
/// per round instead of 9; partial round 0 keeps the dense remainder).
/// Full rounds mix through Fr::mat3_mul_fused. The result is bit-equal
/// to the dense textbook schedule, which tests/support/poseidon_reference.h
/// keeps as the oracle.
void poseidon_permute(std::array<field::Fr, PoseidonParams::kWidth>& state);

/// One-input hash: used for pk = H(sk) and nullifier = H(a1).
field::Fr poseidon_hash1(const field::Fr& a);

/// Two-input hash: used for a1 = H(sk, epoch) and Merkle node hashing.
field::Fr poseidon_hash2(const field::Fr& a, const field::Fr& b);

}  // namespace wakurln::hash
