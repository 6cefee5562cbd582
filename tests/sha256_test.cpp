#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "hash/sha256.h"
#include "hash/sha256_kernels.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace wakurln::hash {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_hex;

TEST(Sha256Test, NistVectorEmpty) {
  EXPECT_EQ(to_hex(Sha256::digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, NistVectorAbc) {
  EXPECT_EQ(to_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistVectorTwoBlocks) {
  EXPECT_EQ(to_hex(Sha256::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, NistVectorMillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finalize(), Sha256::digest(msg)) << "split at " << split;
  }
}

// Known answers for 'a' x n, from an independent implementation:
//   python3 -c "import hashlib; print(hashlib.sha256(b'a' * n).hexdigest())"
// The lengths walk every padding case: 55 bytes is the longest message
// whose 0x80 + length fit in its last block, 56..63 spill the length into
// an extra block, 64/128 are whole blocks, 119/120 repeat the edge one
// block later.
struct KnownAnswer {
  std::size_t n;
  const char* hex;
};

constexpr KnownAnswer kRepeatedA[] = {
    {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"},
    {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
    {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
    {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
    {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
    {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
    {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
    {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
    {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
    {128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
    {1000, "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"},
};

TEST(Sha256Test, ExactBlockBoundaries) {
  for (const auto& [n, hex] : kRepeatedA) {
    EXPECT_EQ(to_hex(Sha256::digest(std::string(n, 'a'))), hex) << "length " << n;
  }
}

TEST(Sha256Test, SplitUpdatesStraddlingPaddingEdges) {
  // Two update() calls whose boundary sits on either side of byte 56
  // (where the length field starts) or of the 64-byte block edge: the
  // buffered tail finalize() pads must not depend on how it was fed.
  for (const auto& [n, hex] : kRepeatedA) {
    for (std::size_t split : {1u, 55u, 56u, 57u, 63u, 64u, 65u}) {
      if (split > n) continue;
      const std::string msg(n, 'a');
      Sha256 h;
      h.update(std::string_view(msg).substr(0, split));
      h.update(std::string_view(msg).substr(split));
      EXPECT_EQ(to_hex(h.finalize()), hex) << "length " << n << " split at " << split;
    }
  }
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(Sha256::digest("a"), Sha256::digest("b"));
  EXPECT_NE(Sha256::digest(""), Sha256::digest(std::string(1, '\0')));
}

TEST(HmacSha256Test, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = util::to_bytes("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  const Bytes key = util::to_bytes("Jefe");
  const Bytes data = util::to_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Bytes data = util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256Test, KeySensitivity) {
  const Bytes k1 = {1, 2, 3};
  const Bytes k2 = {1, 2, 4};
  const Bytes data = {9, 9, 9};
  EXPECT_NE(hmac_sha256(k1, data), hmac_sha256(k2, data));
}

// -- the two compression paths ----------------------------------------------
// Sha256 runs whichever compression detail::selected_compress() chose, so
// the known answers above cover the selected path. The tests below call
// each path directly: the portable compression is the oracle the SHA-NI
// kernel must match bit for bit.

using State = std::array<std::uint32_t, 8>;
using Block = std::array<std::uint8_t, 64>;

constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

State compress_with(detail::CompressFn fn, State state, const Block& block) {
  fn(state.data(), block.data());
  return state;
}

constexpr const char* kNoShaNi =
    "this CPU lacks the x86 SHA extensions (CPUID SHA, SSE4.1 and SSSE3); "
    "only the portable compression runs here";

TEST(Sha256KernelTest, SelectionFollowsCpuCheck) {
  const detail::CompressFn expected =
      detail::cpu_has_sha_ni() ? detail::compress_sha_ni : detail::compress_portable;
  EXPECT_EQ(detail::selected_compress(), expected);
}

TEST(Sha256KernelTest, BothPathsReproduceNistAbcBlock) {
  // "abc" padded to one block: 0x80 after the message, bit length 24.
  Block block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;
  const State abc = {0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
                     0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad};
  EXPECT_EQ(compress_with(detail::compress_portable, kInitialState, block), abc);
  if (!detail::cpu_has_sha_ni()) GTEST_SKIP() << kNoShaNi;
  EXPECT_EQ(compress_with(detail::compress_sha_ni, kInitialState, block), abc);
}

TEST(Sha256KernelTest, ShaNiMatchesPortableOnEdgeInputs) {
  if (!detail::cpu_has_sha_ni()) GTEST_SKIP() << kNoShaNi;
  Block zeros{};
  Block ones{};
  ones.fill(0xff);
  State all_set{};
  all_set.fill(0xffffffff);
  for (const State& state : {kInitialState, State{}, all_set}) {
    for (const Block& block : {zeros, ones}) {
      EXPECT_EQ(compress_with(detail::compress_sha_ni, state, block),
                compress_with(detail::compress_portable, state, block))
          << "state[0] " << state[0] << " block byte " << int{block[0]};
    }
  }
}

TEST(Sha256KernelTest, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  if (!detail::cpu_has_sha_ni()) GTEST_SKIP() << kNoShaNi;
  util::Rng rng(0x5a256);
  for (int i = 0; i < 10'000; ++i) {
    State state{};
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next_u64());
    Block block{};
    rng.fill(block);
    ASSERT_EQ(compress_with(detail::compress_sha_ni, state, block),
              compress_with(detail::compress_portable, state, block))
        << "pair " << i;
  }
}

TEST(Sha256KernelTest, FourThreadsHashAtOnce) {
  // Shard lanes hash concurrently, and in a fresh process the first of
  // them makes the once-per-process kernel selection. All four threads
  // start together (so the selection races under TSan) and hash the
  // 'a' x n known answers plus an HMAC vector many times over.
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  const Bytes hmac_key(20, 0x0b);
  const Bytes hmac_data = util::to_bytes("Hi There");
  std::latch start(kThreads);
  std::atomic<int> mismatches{0};
  std::atomic<int> checked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& [n, hex] : kRepeatedA) {
          if (to_hex(Sha256::digest(std::string(n, 'a'))) != hex) ++mismatches;
          ++checked;
        }
        if (to_hex(hmac_sha256(hmac_key, hmac_data)) !=
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7") {
          ++mismatches;
        }
        ++checked;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(checked.load(),
            kThreads * kRounds * static_cast<int>(std::size(kRepeatedA) + 1));
}

}  // namespace
}  // namespace wakurln::hash
