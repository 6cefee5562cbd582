// Differential suite for the batched field kernels: every batch path in
// src/field must be *bit-identical* to the scalar reference operation it
// replaces — not merely equal mod r. Elements are stored canonically, so
// EXPECT_EQ on Fr (raw limb comparison) is exactly that bit-equality
// claim. The suite drives seeded-random property sweeps plus the edges
// that break Montgomery code in practice: 0, 1, r-1, values whose raw
// Montgomery limbs sit at the reduction boundary, batch sizes 0 / 1 /
// odd / 4-lane remainders / large, and aliased outputs.

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

std::vector<Fr> random_elements(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fr> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(Fr::random(rng));
  return xs;
}

// ---------------------------------------------------------------------------
// mul_batch / square_batch

TEST(FrBatchTest, MulBatchMatchesScalarOnRandomInputs) {
  // 1000 exercises the 4-wide kernel ~250 times plus no tail; sweep
  // nearby sizes so every tail remainder (1, 2, 3) is also covered.
  for (std::size_t n : {1000u, 1001u, 1002u, 1003u}) {
    const auto a = random_elements(n, 0x11 + n);
    const auto b = random_elements(n, 0x22 + n);
    std::vector<Fr> out(n);
    Fr::mul_batch(a, b, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], a[i] * b[i]) << "lane " << i << " of " << n;
    }
  }
}

TEST(FrBatchTest, MulBatchMatchesScalarOnEdgeCross) {
  // Full cross product of the edge set against itself: zero limbs,
  // maximal limbs and boundary values in every lane position.
  const auto edges = edge_elements();
  std::vector<Fr> a, b;
  for (const Fr& x : edges) {
    for (const Fr& y : edges) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  std::vector<Fr> out(a.size());
  Fr::mul_batch(a, b, out);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], a[i] * b[i]) << "edge pair " << i;
  }
}

TEST(FrBatchTest, MulBatchHandlesEmptyAndSingleton) {
  Fr::mul_batch({}, {}, {});  // no-op, must not touch memory
  std::vector<Fr> a = {Fr::from_u64(7)}, b = {Fr::from_u64(9)}, out(1);
  Fr::mul_batch(a, b, out);
  EXPECT_EQ(out[0], Fr::from_u64(63));
}

TEST(FrBatchTest, MulBatchSupportsAliasedOutput) {
  for (std::size_t n : {4u, 7u}) {
    auto a = random_elements(n, 0x33);
    const auto b = random_elements(n, 0x44);
    const auto a_copy = a;
    Fr::mul_batch(a, b, a);  // out aliases a
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[i], a_copy[i] * b[i]) << "aliased lane " << i;
    }
  }
}

TEST(FrBatchTest, SquareBatchMatchesScalarSquare) {
  auto xs = random_elements(257, 0x55);  // 64 blocks + remainder 1
  const auto edges = edge_elements();
  xs.insert(xs.end(), edges.begin(), edges.end());
  std::vector<Fr> out(xs.size());
  Fr::square_batch(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(out[i], xs[i].square()) << "lane " << i;
  }
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
