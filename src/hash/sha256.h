#pragma once
// Self-contained SHA-256 and HMAC-SHA-256 (FIPS 180-4 / RFC 2104).
//
// Used for byte-level hashing: message ids, PoW grinding, derivation of
// Poseidon round constants, and the MAC binding inside the mock zkSNARK
// backend. Verified against NIST/RFC test vectors and padding-boundary
// known answers in tests/sha256_test.cpp.
//
// The block compression has two implementations (hash/sha256_kernels.h):
// one on the x86 SHA extensions (SHA-NI) and a portable one. CPUID picks
// SHA-NI once per process when the CPU reports SHA, SSE4.1 and SSSE3;
// every other CPU, and every non-x86-64 build, runs the portable one.
// Both produce identical digests; no build flag or setting selects them.

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace wakurln::hash {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256();

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view data);

  /// Finalises and returns the digest. The object must not be reused after.
  Digest finalize();

  /// One-shot convenience.
  static Digest digest(std::span<const std::uint8_t> data);
  static Digest digest(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA-256 (RFC 2104).
Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data);

}  // namespace wakurln::hash
