#include "hash/poseidon.h"

#include <string>

#include "hash/sha256.h"
#include "util/bytes.h"
#include "util/check.h"

namespace wakurln::hash {

namespace {

using field::Fr;
using State = std::array<Fr, PoseidonParams::kWidth>;
using Mat3 = std::array<std::array<Fr, PoseidonParams::kWidth>, PoseidonParams::kWidth>;

constexpr int kHalfFull = PoseidonParams::kFullRounds / 2;
constexpr int kPartial = PoseidonParams::kPartialRounds;

// Derives a field element from a domain-separated SHA-256 expansion.
Fr derive_constant(const std::string& label) {
  const Digest d = Sha256::digest(label);
  return Fr::from_bytes_be(d);
}

PoseidonParams build_params() {
  PoseidonParams p;
  const int rounds = PoseidonParams::kFullRounds + PoseidonParams::kPartialRounds;
  p.round_constants.reserve(rounds);
  for (int r = 0; r < rounds; ++r) {
    std::array<Fr, PoseidonParams::kWidth> rc;
    for (int j = 0; j < PoseidonParams::kWidth; ++j) {
      rc[j] = derive_constant("wakurln.poseidon.t3.rc." + std::to_string(r) + "." +
                              std::to_string(j));
    }
    p.round_constants.push_back(rc);
  }
  // Cauchy MDS: M[i][j] = 1 / (x_i + y_j) with x = {0,1,2}, y = {3,4,5}.
  // All x_i distinct, all y_j distinct and x_i + y_j != 0 in Fr, which
  // guarantees the matrix is MDS (maximum distance separable).
  for (int i = 0; i < PoseidonParams::kWidth; ++i) {
    for (int j = 0; j < PoseidonParams::kWidth; ++j) {
      p.mds[i][j] =
          (Fr::from_u64(static_cast<std::uint64_t>(i)) +
           Fr::from_u64(static_cast<std::uint64_t>(PoseidonParams::kWidth + j)))
              .inverse();
    }
  }
  return p;
}

Fr sbox(const Fr& x) {
  const Fr x2 = x.square();
  const Fr x4 = x2.square();
  return x4 * x;
}

// S = [[s00, w1, w2], [v1, 1, 0], [v2, 0, 1]]: one partial round's mix
// after the dense MDS products are factored (5 products instead of 9).
struct SparseMix {
  Fr s00, w1, w2, v1, v2;
};

// The optimised schedule (Grassi et al., "Poseidon", USENIX Security
// 2021, Appendix B), derived once from PoseidonParams. Field arithmetic
// is exact and elements are stored canonically, so the permutation it
// drives is bit-equal to the dense schedule.
struct Schedule {
  Mat3 mds;
  // Per full round, the constants added before its S-boxes. The first
  // round of the second half also carries the partial rounds' folded
  // constants.
  std::array<State, PoseidonParams::kFullRounds> full_constants;
  // Per partial round, the one constant added to element 0.
  std::array<Fr, kPartial> partial_constants;
  // Partial round 0 mixes through what is left of the factored product.
  Mat3 first_partial_mix;
  // Partial rounds 1 .. kPartial-1.
  std::array<SparseMix, kPartial - 1> sparse_mixes;
};

Schedule build_schedule(const PoseidonParams& p) {
  Schedule s;
  s.mds = p.mds;
  for (int r = 0; r < kHalfFull; ++r) s.full_constants[r] = p.round_constants[r];

  // A partial round's S-box touches element 0 only, so the constants it
  // adds to elements 1 and 2 pass through it and can be carried forward:
  // acc is what the dense schedule's state holds beyond this one's.
  State acc = {Fr::zero(), Fr::zero(), Fr::zero()};
  for (int r = 0; r < kPartial; ++r) {
    const State& c = p.round_constants[kHalfFull + r];
    s.partial_constants[r] = c[0] + acc[0];
    const State carried = {Fr::zero(), c[1] + acc[1], c[2] + acc[2]};
    Fr::mat3_mul_fused(p.mds, carried, acc);
  }
  for (int r = 0; r < kHalfFull; ++r) {
    s.full_constants[kHalfFull + r] = p.round_constants[kHalfFull + kPartial + r];
  }
  for (int j = 0; j < PoseidonParams::kWidth; ++j) s.full_constants[kHalfFull][j] += acc[j];

  // Factor the partial rounds' mixes from the last one back. Split
  // D = S * diag(1, Dh), with Dh the lower-right 2x2 block of D and
  // S = [[d00, d_row * Dh^-1], [d_col, I]]. diag(1, Dh) leaves element 0
  // alone, so it commutes with the round's constant and S-box and folds
  // into the previous round's mix: D <- diag(1, Dh) * M.
  Mat3 d = p.mds;
  for (int r = kPartial - 1; r >= 1; --r) {
    const Fr det = d[1][1] * d[2][2] - d[1][2] * d[2][1];
    // Dh is a product of M's lower-right blocks, and every square block
    // of a Cauchy matrix is invertible.
    WAKURLN_CHECK(!det.is_zero());
    const Fr inv = det.inverse();
    s.sparse_mixes[r - 1] = {d[0][0], (d[0][1] * d[2][2] - d[0][2] * d[2][1]) * inv,
                             (d[0][2] * d[1][1] - d[0][1] * d[1][2]) * inv, d[1][0],
                             d[2][0]};
    Mat3 next;
    next[0] = p.mds[0];
    for (int i = 1; i < PoseidonParams::kWidth; ++i) {
      for (int j = 0; j < PoseidonParams::kWidth; ++j) {
        next[i][j] = d[i][1] * p.mds[1][j] + d[i][2] * p.mds[2][j];
      }
    }
    d = next;
  }
  s.first_partial_mix = d;
  return s;
}

}  // namespace

const PoseidonParams& PoseidonParams::instance() {
  static const PoseidonParams params = build_params();
  return params;
}

void poseidon_permute(State& state) {
  static const Schedule s = build_schedule(PoseidonParams::instance());
  State t;
  const auto full_round = [&](const State& rc) {
    for (int j = 0; j < PoseidonParams::kWidth; ++j) t[j] = sbox(state[j] + rc[j]);
    Fr::mat3_mul_fused(s.mds, t, state);
  };

  for (int r = 0; r < kHalfFull; ++r) full_round(s.full_constants[r]);

  t = {sbox(state[0] + s.partial_constants[0]), state[1], state[2]};
  Fr::mat3_mul_fused(s.first_partial_mix, t, state);
  for (int r = 1; r < kPartial; ++r) {
    const SparseMix& m = s.sparse_mixes[r - 1];
    const Fr x0 = sbox(state[0] + s.partial_constants[r]);
    state[0] = m.s00 * x0 + m.w1 * state[1] + m.w2 * state[2];
    state[1] += m.v1 * x0;
    state[2] += m.v2 * x0;
  }

  for (int r = kHalfFull; r < PoseidonParams::kFullRounds; ++r) full_round(s.full_constants[r]);
}

field::Fr poseidon_hash1(const Fr& a) {
  // Capacity element carries the domain tag (input arity).
  std::array<Fr, PoseidonParams::kWidth> state = {Fr::from_u64(1), a, Fr::zero()};
  poseidon_permute(state);
  return state[0];
}

field::Fr poseidon_hash2(const Fr& a, const Fr& b) {
  std::array<Fr, PoseidonParams::kWidth> state = {Fr::from_u64(2), a, b};
  poseidon_permute(state);
  return state[0];
}

}  // namespace wakurln::hash
