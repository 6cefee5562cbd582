#include "hash/sha256.h"

#include <cstdlib>
#include <cstring>

#include "hash/sha256_kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WAKURLN_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace wakurln::hash {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#ifdef WAKURLN_SHA_NI

// SHA-NI compression. sha256rnds2 runs two rounds on the working state
// split as {A,B,E,F} and {C,D,G,H} (A and C in the top lane), taking the
// two rounds' W+K sums from the low half of its third operand.
// sha256msg1/msg2 extend the message schedule four words at a time: for
// the group of words w[4j..4j+3], j >= 4,
//   W[j] = msg2(msg1(W[j-4], W[j-3]) + (w[4j-7..4j-4]), W[j-1])
// where the middle term is alignr(W[j-1], W[j-2]). The ring m[] holds the
// last four groups; group j lives in m[j % 4].
__attribute__((target("sha,sse4.1,ssse3")))
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* block) {
  // Byte-swaps each 32-bit lane: the block is big-endian words.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // {a,b,c,d}, {e,f,g,h} -> ABEF, CDGH lane order.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  const auto* words = reinterpret_cast<const __m128i*>(block);
  __m128i m[4] = {_mm_shuffle_epi8(_mm_loadu_si128(words), bswap),
                  _mm_shuffle_epi8(_mm_loadu_si128(words + 1), bswap),
                  _mm_shuffle_epi8(_mm_loadu_si128(words + 2), bswap),
                  _mm_shuffle_epi8(_mm_loadu_si128(words + 3), bswap)};
  // Fully unrolled, the ring indices and the schedule conditions below
  // fold to constants and m[] lives in registers.
#ifdef __clang__
#pragma unroll
#else
#pragma GCC unroll 16
#endif
  for (int j = 0; j < 16; ++j) {
    __m128i wk = _mm_add_epi32(
        m[j % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * j)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (j >= 3 && j < 15) {
      // Finish W[j+1]; m[(j+1) % 4] holds msg1(W[j-3], W[j-2]).
      __m128i& next = m[(j + 1) % 4];
      next = _mm_add_epi32(next, _mm_alignr_epi8(m[j % 4], m[(j + 3) % 4], 4));
      next = _mm_sha256msg2_epu32(next, m[j % 4]);
    }
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (j >= 1 && j < 13) {
      // Start W[j+3] in W[j-1]'s slot, now that W[j-1] is spent.
      m[(j + 3) % 4] = _mm_sha256msg1_epu32(m[(j + 3) % 4], m[j % 4]);
    }
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  // ABEF, CDGH -> {a,b,c,d}, {e,f,g,h}.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  // __get_cpuid_count fails when the CPU's highest leaf is below 7.
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && sse41 && ssse3;
}

#else

void compress_sha_ni(std::uint32_t* /*state*/, const std::uint8_t* /*block*/) {
  // Unreachable: cpu_has_sha_ni() is false off x86-64, so nothing selects
  // or may call this.
  std::abort();
}

bool cpu_has_sha_ni() { return false; }

#endif  // WAKURLN_SHA_NI

CompressFn selected_compress() {
  static const CompressFn selected = cpu_has_sha_ni() ? compress_sha_ni : compress_portable;
  return selected;
}

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::process_block(const std::uint8_t* block) {
  detail::selected_compress()(state_.data(), block);
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Sha256::finalize() {
  // Pad in place: 0x80, zeros up to byte 56 of the last block (spilling
  // into one extra block when fewer than 9 bytes are free), then the
  // 64-bit big-endian message length. At most two compressions.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  process_block(buffer_.data());

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::digest(std::span<const std::uint8_t> data) {
  return Sha256().update(data).finalize();
}

Digest Sha256::digest(std::string_view data) {
  return Sha256().update(data).finalize();
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Digest kd = Sha256::digest(key);
    std::memcpy(k_block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k_block[i] ^ 0x36;
    opad[i] = k_block[i] ^ 0x5c;
  }
  const Digest inner = Sha256().update(ipad).update(data).finalize();
  return Sha256().update(opad).update(inner).finalize();
}

}  // namespace wakurln::hash
