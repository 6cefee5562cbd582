#pragma once
// Groth16-shaped proof system for the RLN relation.
//
// Substitution (DESIGN.md §2): the paper uses Groth16 over BN254 via the
// kilic/rln Rust library. We reproduce the *interface and observable
// behaviour* of Groth16 — one-time setup emitting a multi-megabyte proving
// key and a small verifying key, constant 128-byte proofs, constant-time
// verification, and a prover that only succeeds on witnesses satisfying the
// relation — while replacing the pairing-based argument with a keyed-hash
// binding (designated-verifier argument). Within the simulated system no
// party holds the setup secret except through the key objects, so proofs
// cannot be forged for unsatisfied statements, preserving the soundness
// behaviour every experiment relies on.

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "hash/sha256.h"
#include "util/rng.h"
#include "zksnark/rln_circuit.h"

namespace wakurln::zksnark {

/// Constant-size proof, matching Groth16's 2·G1 + G2 compressed encoding.
struct Proof {
  static constexpr std::size_t kSize = 128;
  std::array<std::uint8_t, kSize> bytes{};

  bool operator==(const Proof&) const = default;
};

/// Proving key: large, member-held artefact (paper: ≈3.89 MB).
struct ProvingKey {
  std::string circuit_id;
  std::size_t tree_depth = 0;
  /// Setup secret shared with the verifying key (simulated CRS trapdoor).
  std::array<std::uint8_t, 32> binding_secret{};
  /// Modelled on-disk size of a real Groth16 proving key for this circuit.
  std::size_t simulated_size_bytes = 0;
};

/// Verifying key: small artefact distributed to every routing peer.
struct VerifyingKey {
  std::string circuit_id;
  std::size_t tree_depth = 0;
  std::array<std::uint8_t, 32> binding_secret{};
  std::size_t simulated_size_bytes = 0;
};

struct KeyPair {
  ProvingKey pk;
  VerifyingKey vk;
};

/// Groth16-shaped prover/verifier for the RLN relation.
class MockGroth16 {
 public:
  /// One-time circuit setup for a given membership-tree depth.
  static KeyPair setup(std::size_t tree_depth, util::Rng& rng);

  /// Produces a proof iff the witness satisfies the RLN relation for `pub`
  /// and the path depth matches the circuit; nullopt otherwise. Proofs are
  /// salted: proving the same statement twice yields different bytes
  /// (zero-knowledge re-randomisation behaviour).
  static std::optional<Proof> prove(const ProvingKey& pk, const RlnWitness& witness,
                                    const RlnPublicInputs& pub, util::Rng& rng);

  /// Modelled proving-key size for a depth-d circuit, anchored to the
  /// paper's 3.89 MB figure.
  static std::size_t modelled_proving_key_bytes(std::size_t tree_depth);
};

/// The verifier for MockGroth16 proofs under one verifying key.
/// Precomputes the HMAC ipad/opad midstates and the constant transcript
/// prefix (circuit id + depth) once, then each verify() resumes from the
/// cached state and serialises the varying parts (salt, public inputs)
/// into stack buffers — no heap traffic on the validation hot path. It
/// replays the prover's byte transcript exactly; the step-by-step
/// transcript in tests/support/verify_reference.h is its oracle. Verify
/// is const and copies the midstates per call: safe to share across a
/// world's relays.
class PreparedVerifier {
 public:
  explicit PreparedVerifier(const VerifyingKey& vk);

  /// Constant-time acceptance check of `proof` against the public inputs.
  bool verify(const Proof& proof, const RlnPublicInputs& pub) const;

 private:
  hash::Sha256 inner_midstate_;  ///< ipad block + constant transcript prefix
  hash::Sha256 outer_midstate_;  ///< opad block
};

}  // namespace wakurln::zksnark
