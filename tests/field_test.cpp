#include <gtest/gtest.h>

#include <vector>

#include "field/fr.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace wakurln::field {
namespace {

using util::Rng;

TEST(FrTest, ZeroAndOneIdentities) {
  const Fr z = Fr::zero();
  const Fr o = Fr::one();
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(o.is_zero());
  EXPECT_EQ(z + o, o);
  EXPECT_EQ(o * o, o);
  EXPECT_EQ(z * o, z);
  EXPECT_EQ(o - o, z);
}

TEST(FrTest, FromU64MatchesSmallArithmetic) {
  for (std::uint64_t a : {0ULL, 1ULL, 2ULL, 57ULL, 1000000007ULL}) {
    for (std::uint64_t b : {0ULL, 1ULL, 3ULL, 99ULL, 4294967295ULL}) {
      EXPECT_EQ(Fr::from_u64(a) + Fr::from_u64(b), Fr::from_u64(a + b));
      // max product here is ~4.3e18 < 2^64, so a*b does not wrap
      EXPECT_EQ(Fr::from_u64(a) * Fr::from_u64(b), Fr::from_u64(a * b));
    }
  }
}

TEST(FrTest, ModulusBytesMatchKnownConstant) {
  // r = 0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001
  const auto m = Fr::modulus_bytes_be();
  EXPECT_EQ(util::to_hex(m),
            "30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001");
}

TEST(FrTest, ModulusReducesToZero) {
  const auto m = Fr::modulus_bytes_be();
  EXPECT_TRUE(Fr::from_bytes_be(m).is_zero());
}

TEST(FrTest, ModulusMinusOnePlusOneIsZero) {
  auto m = Fr::modulus_bytes_be();
  m[31] -= 1;  // r - 1 (r ends in ...01)
  const Fr r_minus_1 = Fr::from_bytes_be(m);
  EXPECT_TRUE((r_minus_1 + Fr::one()).is_zero());
  EXPECT_EQ(-Fr::one(), r_minus_1);
}

TEST(FrTest, CanonicalParseRejectsModulus) {
  const auto m = Fr::modulus_bytes_be();
  EXPECT_FALSE(Fr::from_bytes_canonical(m).has_value());
  auto below = m;
  below[31] -= 1;
  EXPECT_TRUE(Fr::from_bytes_canonical(below).has_value());
}

TEST(FrTest, CanonicalParseRejectsWrongLength) {
  const std::array<std::uint8_t, 31> short_buf{};
  EXPECT_FALSE(Fr::from_bytes_canonical(short_buf).has_value());
}

TEST(FrTest, SerializationRoundTrip) {
  Rng rng(101);
  for (int i = 0; i < 200; ++i) {
    const Fr a = Fr::random(rng);
    const auto bytes = a.to_bytes_be();
    EXPECT_EQ(Fr::from_bytes_be(bytes), a);
    const auto strict = Fr::from_bytes_canonical(bytes);
    ASSERT_TRUE(strict.has_value());
    EXPECT_EQ(*strict, a);
  }
}

TEST(FrTest, AdditionCommutesAndAssociates) {
  Rng rng(102);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng), b = Fr::random(rng), c = Fr::random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST(FrTest, MultiplicationCommutesAndAssociates) {
  Rng rng(103);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng), b = Fr::random(rng), c = Fr::random(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TEST(FrTest, DistributiveLaw) {
  Rng rng(104);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng), b = Fr::random(rng), c = Fr::random(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(FrTest, SubtractionInvertsAddition) {
  Rng rng(105);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng), b = Fr::random(rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a - a, Fr::zero());
  }
}

TEST(FrTest, NegationIsAdditiveInverse) {
  Rng rng(106);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng);
    EXPECT_TRUE((a + (-a)).is_zero());
    EXPECT_EQ(-(-a), a);
  }
  EXPECT_TRUE((-Fr::zero()).is_zero());
}

TEST(FrTest, InverseIsMultiplicativeInverse) {
  Rng rng(107);
  for (int i = 0; i < 50; ++i) {
    Fr a = Fr::random(rng);
    if (a.is_zero()) a = Fr::one();
    EXPECT_EQ(a * a.inverse(), Fr::one());
  }
}

TEST(FrTest, InverseMatchesFermat) {
  // The binary-Euclid inverse against the Fermat ladder a^(r-2).
  const std::array<std::uint64_t, 4> r_minus_2 = {
      0x43e1f593efffffffULL, 0x2833e84879b97091ULL,
      0xb85045b68181585dULL, 0x30644e72e131a029ULL};
  const Fr max64 = Fr::from_u64(0xffffffffffffffffULL);
  const Fr top64 = Fr::from_u64(0x8000000000000000ULL);
  std::vector<Fr> xs = {Fr::one(), Fr::from_u64(2), -Fr::one(), -Fr::from_u64(2),
                        max64,     -max64,          top64,      -top64};
  Rng rng(115);
  for (int i = 0; i < 10000; ++i) {
    const Fr a = Fr::random(rng);
    if (!a.is_zero()) xs.push_back(a);
  }
  for (const Fr& a : xs) {
    const Fr inv = a.inverse();
    ASSERT_EQ(inv, a.pow(r_minus_2)) << a.to_hex();
    ASSERT_EQ(a * inv, Fr::one()) << a.to_hex();
  }
}

TEST(FrTest, InverseOfZeroThrows) {
  EXPECT_THROW(Fr::zero().inverse(), std::domain_error);
}

TEST(FrTest, SquareMatchesSelfMultiply) {
  Rng rng(108);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng);
    EXPECT_EQ(a.square(), a * a);
  }
}

TEST(FrTest, PowSmallExponents) {
  Rng rng(109);
  const Fr a = Fr::random(rng);
  EXPECT_EQ(a.pow(std::uint64_t{0}), Fr::one());
  EXPECT_EQ(a.pow(std::uint64_t{1}), a);
  EXPECT_EQ(a.pow(std::uint64_t{2}), a.square());
  EXPECT_EQ(a.pow(std::uint64_t{5}), a * a * a * a * a);
}

TEST(FrTest, PowAddsExponents) {
  Rng rng(110);
  const Fr a = Fr::random(rng);
  EXPECT_EQ(a.pow(std::uint64_t{7}) * a.pow(std::uint64_t{9}), a.pow(std::uint64_t{16}));
}

TEST(FrTest, FermatLittleTheorem) {
  // a^(r-1) == 1 for a != 0.
  Rng rng(111);
  auto exp_limbs = std::array<std::uint64_t, 4>{
      0x43e1f593f0000000ULL, 0x2833e84879b97091ULL,
      0xb85045b68181585dULL, 0x30644e72e131a029ULL};  // r - 1
  for (int i = 0; i < 10; ++i) {
    Fr a = Fr::random(rng);
    if (a.is_zero()) a = Fr::from_u64(3);
    EXPECT_EQ(a.pow(exp_limbs), Fr::one());
  }
}

TEST(FrTest, RandomElementsDistinct) {
  Rng rng(112);
  const Fr a = Fr::random(rng);
  const Fr b = Fr::random(rng);
  EXPECT_NE(a, b);
}

TEST(FrTest, HashConsistentWithEquality) {
  Rng rng(113);
  for (int i = 0; i < 50; ++i) {
    const Fr a = Fr::random(rng);
    const Fr b = Fr::from_bytes_be(a.to_bytes_be());
    EXPECT_EQ(a.hash64(), b.hash64());
  }
}

TEST(FrTest, HexStringIs64Chars) {
  Rng rng(114);
  const Fr a = Fr::random(rng);
  EXPECT_EQ(a.to_hex().size(), 64u);
}

TEST(FrTest, FromBytesReducesLargeValues) {
  // 2^256 - 1 reduces to (2^256 - 1) mod r; check via algebra:
  // from_bytes(all-ones) + 1 + (r - 2^256 mod r adjustments) is hard to
  // state directly, so instead verify that reduce(x) == reduce(x - r).
  std::array<std::uint8_t, 32> all_ones;
  all_ones.fill(0xff);
  const Fr reduced = Fr::from_bytes_be(all_ones);
  // Compute expected: (2^255 mod r) * 2 + (2^256-1 - 2*2^255 == -1 → plus r-1? )
  // Simpler: 2^256 - 1 = 2 * (2^255) - 1.
  const Fr two_255 = Fr::from_u64(2).pow(std::uint64_t{255});
  EXPECT_EQ(reduced, two_255 * Fr::from_u64(2) - Fr::one());
}

}  // namespace
}  // namespace wakurln::field
