// E0 (supporting) — microbenchmarks of the cryptographic substrates the
// §IV numbers decompose into: field multiplication, Poseidon, SHA-256,
// Merkle insertion/proof, Shamir reconstruction.
//
// Emits BENCH_crypto_primitives.json via the shared runner.

#include <array>
#include <cstdio>

#include "harness.h"
#include "hash/poseidon.h"
#include "hash/sha256.h"
#include "hash/sha256_kernels.h"
#include "merkle/merkle_tree.h"
#include "shamir/shamir.h"
#include "support/poseidon_reference.h"
#include "util/rng.h"

using namespace wakurln;

int main() {
  bench::Runner runner("crypto_primitives");
  std::printf("E0: cryptographic substrate microbenchmarks\n\n");

  {
    util::Rng rng(1);
    field::Fr a = field::Fr::random(rng);
    const field::Fr b = field::Fr::random(rng);
    runner.run(
        "field_mul",
        [&] {
          for (int i = 0; i < 10000; ++i) a = a * b;
          bench::do_not_optimize(a);
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/10000);
  }

  {
    // Fr::inverse (binary extended Euclid) against the Fermat ladder
    // a^(r-2), the tests' oracle. Binary Euclid is variable-time, so both
    // rows chain through a varying operand, (a + b)^-1: chaining a = a^-1
    // would time only the two points a and a^-1. The speedup metric is
    // CI-gated.
    const std::array<std::uint64_t, 4> r_minus_2 = {
        0x43e1f593efffffffULL, 0x2833e84879b97091ULL,
        0xb85045b68181585dULL, 0x30644e72e131a029ULL};
    util::Rng rng(2);
    const field::Fr start = field::Fr::random(rng);
    const field::Fr b = field::Fr::random(rng);
    field::Fr a = start;
    const auto& s = runner.run(
        "field_inverse",
        [&] {
          for (int i = 0; i < 100; ++i) a = (a + b).inverse();
          bench::do_not_optimize(a);
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/100);
    a = start;
    const auto& f = runner.run(
        "field_inverse_fermat",
        [&] {
          for (int i = 0; i < 100; ++i) a = (a + b).pow(r_minus_2);
          bench::do_not_optimize(a);
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/100);
    runner.metric("field_inverse_speedup", f.median_ns / s.median_ns, "x");
  }

  {
    // The production permutation (optimised sparse schedule) against the
    // dense textbook schedule, the tests' oracle. The speedup metric is
    // CI-gated.
    util::Rng rng(3);
    const field::Fr start = field::Fr::random(rng);
    const field::Fr b = field::Fr::random(rng);
    field::Fr a = start;
    const auto& s = runner.run(
        "poseidon2",
        [&] {
          for (int i = 0; i < 100; ++i) a = hash::poseidon_hash2(a, b);
          bench::do_not_optimize(a);
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/100);
    a = start;
    const auto& d = runner.run(
        "poseidon2_dense",
        [&] {
          for (int i = 0; i < 100; ++i) a = hash::reference::poseidon_hash2(a, b);
          bench::do_not_optimize(a);
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/100);
    runner.metric("poseidon_sparse_speedup", d.median_ns / s.median_ns, "x");
  }

  {
    util::Rng rng(4);
    util::Bytes data(1024);
    rng.fill(data);
    const auto& s = runner.run(
        "sha256_1kib",
        [&] {
          for (int i = 0; i < 100; ++i) {
            auto d = hash::Sha256::digest(data);
            bench::do_not_optimize(d);
          }
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/100);
    runner.metric("sha256_throughput_mb_s", 1024.0 / s.median_ns * 1000.0, "MB/s");

    // The same 1 KiB (16 blocks + the padding block) through the portable
    // compression directly, beside the kernel Sha256 selected above. On a
    // CPU without SHA-NI both are the portable path and the ratio is ~1.
    std::array<std::uint32_t, 8> state{};
    std::array<std::uint8_t, 64> pad{};
    const auto& p = runner.run(
        "sha256_1kib_portable",
        [&] {
          for (int i = 0; i < 100; ++i) {
            for (std::size_t off = 0; off < data.size(); off += 64) {
              hash::detail::compress_portable(state.data(), data.data() + off);
            }
            hash::detail::compress_portable(state.data(), pad.data());
            bench::do_not_optimize(state);
          }
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/100);
    const bool sha_ni = hash::detail::selected_compress() == hash::detail::compress_sha_ni;
    runner.metric("sha256_sha_ni", sha_ni ? 1.0 : 0.0, "bool");
    runner.metric("sha256_kernel_speedup", p.median_ns / s.median_ns, "x");
  }

  for (const std::size_t depth : {10u, 20u, 32u}) {
    util::Rng rng(5);
    merkle::MerkleTree tree(depth);
    runner.run(
        bench::cat("merkle_insert_d", depth),
        [&] {
          if (tree.size() + 16 > tree.capacity()) tree = merkle::MerkleTree(depth);
          for (int i = 0; i < 16; ++i) tree.append(field::Fr::random(rng));
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/16);
  }

  for (const std::size_t depth : {10u, 20u, 32u}) {
    util::Rng rng(6);
    merkle::MerkleTree tree(depth);
    const field::Fr leaf = field::Fr::random(rng);
    tree.append(leaf);
    for (int i = 0; i < 31; ++i) tree.append(field::Fr::random(rng));
    runner.run(
        bench::cat("merkle_prove_verify_d", depth),
        [&] {
          for (int i = 0; i < 10; ++i) {
            const auto proof = tree.prove(0);
            bool ok = merkle::MerkleTree::verify(tree.root(), leaf, proof);
            bench::do_not_optimize(ok);
          }
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/10);
  }

  {
    util::Rng rng(7);
    const field::Fr sk = field::Fr::random(rng), a1 = field::Fr::random(rng);
    const auto s1 = shamir::make_share(sk, a1, field::Fr::random(rng));
    const auto s2 = shamir::make_share(sk, a1, field::Fr::random(rng));
    runner.run(
        "shamir_reconstruct",
        [&] {
          for (int i = 0; i < 100; ++i) {
            auto r = shamir::reconstruct(s1, s2);
            bench::do_not_optimize(r);
          }
        },
        /*reps=*/20, /*warmup=*/3, /*batch=*/100);
  }

  return 0;
}
