// Differential suite for the fused field kernel: Fr::mat3_mul_fused must
// be *bit-identical* to the scalar mul/add chain it replaces — not merely
// equal mod r. Elements are stored canonically, so EXPECT_EQ on Fr (raw
// limb comparison) is exactly that bit-equality claim. The suite drives
// seeded-random sweeps plus the edges that break Montgomery code in
// practice: 0, 1, r-1, per-limb extremes, and aliased outputs.

#include <gtest/gtest.h>

#include <vector>

#include "field/fr.h"
#include "util/rng.h"

namespace wakurln::field {
namespace {

using util::Rng;

// r - 1, the largest canonical element.
Fr r_minus_one() { return -Fr::one(); }

// Elements that stress the CIOS reduction boundary: tiny values, the
// canonical extremes, and values near r from both sides of small offsets.
std::vector<Fr> edge_elements() {
  std::vector<Fr> edges = {Fr::zero(), Fr::one(), Fr::from_u64(2),
                           r_minus_one(), r_minus_one() - Fr::one()};
  // Per-limb extremes: all-ones and sign-bit limbs from both directions
  // push carries through every CIOS iteration.
  for (std::uint64_t v : {0xffffffffffffffffULL, 0x8000000000000000ULL}) {
    edges.push_back(Fr::from_u64(v));
    edges.push_back(-Fr::from_u64(v));
  }
  return edges;
}

// ---------------------------------------------------------------------------
// mat3_mul_fused

TEST(Mat3MulFusedTest, MatchesAccumulatorAndScalarChainOnRandomInputs) {
  // Per row the fused accumulate-then-reduce kernel must be
  // bit-identical to the plain scalar mul/add chain.
  Rng rng(0xa3);
  for (int trial = 0; trial < 64; ++trial) {
    std::array<std::array<Fr, 3>, 3> m;
    std::array<Fr, 3> v;
    for (auto& row : m) {
      for (auto& e : row) e = Fr::random(rng);
    }
    for (auto& e : v) e = Fr::random(rng);
    std::array<Fr, 3> out;
    Fr::mat3_mul_fused(m, v, out);
    for (int i = 0; i < 3; ++i) {
      const auto& mi = m[static_cast<std::size_t>(i)];
      ASSERT_EQ(out[static_cast<std::size_t>(i)],
                mi[0] * v[0] + mi[1] * v[1] + mi[2] * v[2])
          << "row " << i << " trial " << trial;
    }
  }
}

TEST(Mat3MulFusedTest, HandlesEdgeElementCross) {
  // Matrix and vector built entirely from reduction-boundary edges; every
  // row is three worst-case products, exercising the full carry schedule.
  const auto edges = edge_elements();
  for (std::size_t base = 0; base + 12 <= edges.size() * 2; ++base) {
    std::array<std::array<Fr, 3>, 3> m;
    std::array<Fr, 3> v;
    std::size_t k = base;
    for (auto& row : m) {
      for (auto& e : row) e = edges[k++ % edges.size()];
    }
    for (auto& e : v) e = edges[k++ % edges.size()];
    std::array<Fr, 3> out;
    Fr::mat3_mul_fused(m, v, out);
    for (int i = 0; i < 3; ++i) {
      const auto& mi = m[static_cast<std::size_t>(i)];
      ASSERT_EQ(out[static_cast<std::size_t>(i)],
                mi[0] * v[0] + mi[1] * v[1] + mi[2] * v[2])
          << "row " << i << " base " << base;
    }
  }
}

TEST(Mat3MulFusedTest, OutputMayAliasMatrixButNotVector) {
  // The contract forbids out aliasing v but allows it to alias rows of m.
  Rng rng(0xa4);
  std::array<std::array<Fr, 3>, 3> m;
  std::array<Fr, 3> v;
  for (auto& row : m) {
    for (auto& e : row) e = Fr::random(rng);
  }
  for (auto& e : v) e = Fr::random(rng);
  std::array<Fr, 3> expect;
  Fr::mat3_mul_fused(m, v, expect);
  Fr::mat3_mul_fused(m, v, m[0]);
  EXPECT_EQ(m[0][0], expect[0]);
  EXPECT_EQ(m[0][1], expect[1]);
  EXPECT_EQ(m[0][2], expect[2]);
}

}  // namespace
}  // namespace wakurln::field
