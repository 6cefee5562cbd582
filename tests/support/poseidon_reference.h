#pragma once
// Reference Poseidon permutation: the textbook dense schedule, built only
// from the public PoseidonParams. Every round adds all three round
// constants, applies the S-box (to all three elements in a full round,
// to element 0 in a partial round) and mixes through the full MDS
// matrix. This is the oracle the production permutation
// (hash::poseidon_permute, which runs the optimised sparse schedule) is
// compared against bit for bit; nothing in src/ includes it.

#include <array>
#include <cstddef>

#include "field/fr.h"
#include "hash/poseidon.h"

namespace wakurln::hash::reference {

using State = std::array<field::Fr, PoseidonParams::kWidth>;

inline field::Fr sbox(const field::Fr& x) {
  const field::Fr x2 = x.square();
  const field::Fr x4 = x2.square();
  return x4 * x;
}

inline void mix(const PoseidonParams& p, State& state) {
  State out;
  for (std::size_t i = 0; i < state.size(); ++i) {
    field::Fr acc = field::Fr::zero();
    for (std::size_t j = 0; j < state.size(); ++j) {
      acc += p.mds[i][j] * state[j];
    }
    out[i] = acc;
  }
  state = out;
}

/// The dense permutation: RF/2 full rounds, RP partial rounds, RF/2 full
/// rounds, each round "add constants, S-box, mix".
inline void poseidon_permute(State& state) {
  const PoseidonParams& p = PoseidonParams::instance();
  const int half_full = PoseidonParams::kFullRounds / 2;
  const auto full_round = [&](const State& rc) {
    for (std::size_t j = 0; j < state.size(); ++j) state[j] = sbox(state[j] + rc[j]);
    mix(p, state);
  };
  std::size_t round = 0;
  for (int r = 0; r < half_full; ++r) full_round(p.round_constants[round++]);
  for (int r = 0; r < PoseidonParams::kPartialRounds; ++r) {
    const State& rc = p.round_constants[round++];
    for (std::size_t j = 0; j < state.size(); ++j) state[j] += rc[j];
    state[0] = sbox(state[0]);
    mix(p, state);
  }
  for (int r = 0; r < half_full; ++r) full_round(p.round_constants[round++]);
}

/// Two-input hash through the dense permutation; equal to
/// hash::poseidon_hash2(a, b).
inline field::Fr poseidon_hash2(const field::Fr& a, const field::Fr& b) {
  State state = {field::Fr::from_u64(2), a, b};
  poseidon_permute(state);
  return state[0];
}

}  // namespace wakurln::hash::reference
