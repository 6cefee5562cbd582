#pragma once
// Private to src/hash, its tests and the benches: the two SHA-256
// compression functions behind Sha256::process_block and the CPU check
// that chooses between them. Not part of the public hashing API.
//
// Both functions apply one FIPS 180-4 compression of a 64-byte block to
// the eight-word chaining state (state[0] = a, ..., state[7] = h), so they
// are interchangeable bit for bit; tests/sha256_test.cpp checks that.

#include <cstdint>

namespace wakurln::hash::detail {

using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* block);

/// Portable C++ compression. The only path on CPUs without the SHA
/// extensions and on non-x86-64 builds; the oracle for the SHA-NI path.
void compress_portable(std::uint32_t* state, const std::uint8_t* block);

/// The same compression on the x86 SHA extensions (SHA-NI). Call only when
/// cpu_has_sha_ni() is true.
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* block);

/// Whether CPUID reports SHA (leaf 7, EBX bit 29), SSE4.1 and SSSE3.
/// Always false off x86-64.
bool cpu_has_sha_ni();

/// The compression Sha256 runs, chosen once per process from
/// cpu_has_sha_ni() on first use (thread-safe; first use may come from a
/// static initialiser or from any shard thread).
CompressFn selected_compress();

}  // namespace wakurln::hash::detail
