#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <unordered_set>
#include <vector>

#include "hash/poseidon.h"
#include "merkle/merkle_tree.h"
#include "support/poseidon_reference.h"
#include "util/rng.h"

namespace wakurln::hash {
namespace {

using field::Fr;
using field::FrHash;
using util::Rng;

TEST(PoseidonParamsTest, InstanceIsStable) {
  const PoseidonParams& a = PoseidonParams::instance();
  const PoseidonParams& b = PoseidonParams::instance();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.round_constants.size(),
            static_cast<std::size_t>(PoseidonParams::kFullRounds +
                                     PoseidonParams::kPartialRounds));
}

TEST(PoseidonParamsTest, RoundConstantsAreDistinct) {
  const PoseidonParams& p = PoseidonParams::instance();
  std::unordered_set<Fr, FrHash> seen;
  for (const auto& rc : p.round_constants) {
    for (const auto& c : rc) seen.insert(c);
  }
  EXPECT_EQ(seen.size(), p.round_constants.size() * PoseidonParams::kWidth);
}

TEST(PoseidonParamsTest, MdsMatrixEntriesNonZero) {
  const PoseidonParams& p = PoseidonParams::instance();
  for (const auto& row : p.mds) {
    for (const auto& e : row) EXPECT_FALSE(e.is_zero());
  }
}

TEST(PoseidonParamsTest, MdsMatrixIsInvertible) {
  // det(M) != 0 for the 3x3 Cauchy matrix.
  const auto& m = PoseidonParams::instance().mds;
  const Fr det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
                 m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
                 m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
  EXPECT_FALSE(det.is_zero());
}

TEST(PoseidonPermuteTest, ChangesState) {
  std::array<Fr, 3> state = {Fr::zero(), Fr::zero(), Fr::zero()};
  poseidon_permute(state);
  EXPECT_FALSE(state[0].is_zero());
  EXPECT_FALSE(state[1].is_zero());
  EXPECT_FALSE(state[2].is_zero());
}

TEST(PoseidonPermuteTest, Deterministic) {
  std::array<Fr, 3> s1 = {Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)};
  std::array<Fr, 3> s2 = s1;
  poseidon_permute(s1);
  poseidon_permute(s2);
  EXPECT_EQ(s1, s2);
}

// ---------------------------------------------------------------------------
// The production permutation runs the optimised sparse schedule; the dense
// textbook schedule in support/poseidon_reference.h is its oracle.

TEST(PoseidonPermuteTest, MatchesDenseReferenceOnRandomStates) {
  Rng rng(700);
  for (int i = 0; i < 10000; ++i) {
    std::array<Fr, 3> state = {Fr::random(rng), Fr::random(rng), Fr::random(rng)};
    auto expect = state;
    reference::poseidon_permute(expect);
    poseidon_permute(state);
    ASSERT_EQ(state, expect) << "state " << i;
  }
}

TEST(PoseidonPermuteTest, MatchesDenseReferenceOnDegenerateStates) {
  const Fr r1 = -Fr::one();
  const std::vector<std::array<Fr, 3>> states = {
      {Fr::zero(), Fr::zero(), Fr::zero()},
      {Fr::one(), Fr::one(), Fr::one()},
      {r1, r1, r1},
      {r1, Fr::zero(), r1},
      {Fr::zero(), r1, Fr::zero()},
      {Fr::one(), r1, Fr::zero()},
      {r1, Fr::one(), r1 - Fr::one()},
  };
  for (std::size_t i = 0; i < states.size(); ++i) {
    auto state = states[i];
    auto expect = states[i];
    reference::poseidon_permute(expect);
    poseidon_permute(state);
    ASSERT_EQ(state, expect) << "degenerate state " << i;
  }
}

TEST(PoseidonPermuteTest, ConcurrentFirstCallsAgree) {
  // The optimised schedule's constants are derived on first use. Four
  // threads make that first call at once (ctest runs each test in its own
  // process, so nothing here has hashed before) and must all see the
  // finished constants.
  constexpr int kThreads = 4;
  constexpr int kHashes = 64;
  std::vector<std::vector<Fr>> got(kThreads, std::vector<Fr>(kHashes));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kHashes; ++i) {
        got[t][i] = poseidon_hash2(Fr::from_u64(static_cast<std::uint64_t>(t)),
                                   Fr::from_u64(static_cast<std::uint64_t>(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kHashes; ++i) {
      ASSERT_EQ(got[t][i], reference::poseidon_hash2(Fr::from_u64(static_cast<std::uint64_t>(t)),
                                                     Fr::from_u64(static_cast<std::uint64_t>(i))))
          << "thread " << t << " hash " << i;
    }
  }
}

TEST(PoseidonHashTest, KnownAnswers) {
  // Captured from the dense schedule before the optimised one replaced it.
  const Fr r1 = -Fr::one();
  EXPECT_EQ(poseidon_hash1(Fr::zero()).to_hex(),
            "1d4462ebb2b768c00666139ca507a488dca567b0fa733b224d06346b32a08e9e");
  EXPECT_EQ(poseidon_hash1(Fr::one()).to_hex(),
            "1d358147ea9eb46dba7a335494ede59b2e28049404046cd12cfcb7d536ba142b");
  EXPECT_EQ(poseidon_hash2(Fr::from_u64(1), Fr::from_u64(2)).to_hex(),
            "119834533ead05ab296e74e16a3ed4d4e0ee7724ff5b7ecc884ad019af45a2c7");
  EXPECT_EQ(poseidon_hash2(r1, r1).to_hex(),
            "1e85b8f1dc2fb43c790280cdf3bd952f59bd236688f54df710740bda886b3a57");
  EXPECT_EQ(merkle::zero_at_level(20).to_hex(),
            "0b2d855ce386e5d3a676aa5ebf57f821d574c8f1d5be06c5b23144ec468f0653");
}

TEST(PoseidonHashTest, DeterministicAcrossCalls) {
  const Fr a = Fr::from_u64(123456);
  EXPECT_EQ(poseidon_hash1(a), poseidon_hash1(a));
  EXPECT_EQ(poseidon_hash2(a, a), poseidon_hash2(a, a));
}

TEST(PoseidonHashTest, InputSensitivity) {
  Rng rng(201);
  for (int i = 0; i < 20; ++i) {
    const Fr a = Fr::random(rng);
    const Fr b = Fr::random(rng);
    ASSERT_NE(a, b);
    EXPECT_NE(poseidon_hash1(a), poseidon_hash1(b));
    EXPECT_NE(poseidon_hash2(a, b), poseidon_hash2(b, a));
  }
}

TEST(PoseidonHashTest, DomainSeparationBetweenArities) {
  // H1(x) must differ from H2(x, 0): the capacity tag separates them.
  const Fr x = Fr::from_u64(77);
  EXPECT_NE(poseidon_hash1(x), poseidon_hash2(x, Fr::zero()));
}

TEST(PoseidonHashTest, NoObviousCollisionsOnRandomInputs) {
  Rng rng(202);
  std::unordered_set<Fr, FrHash> outputs;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    outputs.insert(poseidon_hash1(Fr::random(rng)));
  }
  EXPECT_EQ(outputs.size(), static_cast<std::size_t>(n));
}

TEST(PoseidonHashTest, OutputNotEqualToInput) {
  Rng rng(203);
  for (int i = 0; i < 20; ++i) {
    const Fr a = Fr::random(rng);
    EXPECT_NE(poseidon_hash1(a), a);
  }
}

TEST(PoseidonHashTest, AvalancheOnSingleBitOfInput) {
  // Flipping the lowest bit of the input changes the output completely
  // (compare leading bytes rather than full equality to make the check
  // meaningful).
  const Fr a = Fr::from_u64(0x1000);
  const Fr b = Fr::from_u64(0x1001);
  const auto ha = poseidon_hash1(a).to_bytes_be();
  const auto hb = poseidon_hash1(b).to_bytes_be();
  int differing = 0;
  for (std::size_t i = 0; i < ha.size(); ++i) {
    if (ha[i] != hb[i]) ++differing;
  }
  EXPECT_GT(differing, 20);
}

}  // namespace
}  // namespace wakurln::hash
