#pragma once
// Reference proof verification: the MockGroth16 byte transcript replayed
// step by step, with the transcript built in a ByteWriter and the tag
// taken through the one-shot hash::hmac_sha256. A proof is salt (bytes
// 0..31) || tag (32..63) || expansion (64..127), where
//   tag       = HMAC(secret, var(circuit_id) || u64(depth) || salt || pub)
//   expansion = SHA-256(tag || 0) || SHA-256(tag || 1).
// This is the oracle the production path (zksnark::PreparedVerifier,
// which resumes from cached HMAC midstates, reached by relays through
// rln::RlnVerifier::verify_prepared) is compared against verdict for
// verdict; nothing in src/ includes it.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "hash/sha256.h"
#include "rln/epoch.h"
#include "rln/signal.h"
#include "util/bytes.h"
#include "util/serde.h"
#include "zksnark/proof_system.h"
#include "zksnark/rln_circuit.h"

namespace wakurln::zksnark::reference {

/// The binding tag of `salt` and `pub` under `vk`'s setup secret.
inline hash::Digest binding_tag(const VerifyingKey& vk, std::span<const std::uint8_t> salt,
                                const RlnPublicInputs& pub) {
  util::ByteWriter w;
  w.put_var(util::to_bytes(vk.circuit_id));
  w.put_u64(vk.tree_depth);
  w.put_raw(salt);
  w.put_raw(pub.serialize());
  return hash::hmac_sha256(vk.binding_secret, w.data());
}

/// Fills `out` with SHA-256(tag || counter) blocks, counter = 0, 1, ...
inline void expand_tag(const hash::Digest& tag, std::span<std::uint8_t> out) {
  std::uint8_t counter = 0;
  std::size_t written = 0;
  while (written < out.size()) {
    util::ByteWriter w;
    w.put_raw(tag);
    w.put_u8(counter++);
    const hash::Digest block = hash::Sha256::digest(w.data());
    const std::size_t take = std::min(block.size(), out.size() - written);
    std::copy_n(block.begin(), take, out.begin() + written);
    written += take;
  }
}

/// True iff `proof` carries the tag of its own salt and `pub`, followed by
/// that tag's expansion.
inline bool verify(const VerifyingKey& vk, const Proof& proof, const RlnPublicInputs& pub) {
  const auto bytes = std::span<const std::uint8_t>(proof.bytes);
  const hash::Digest tag = binding_tag(vk, bytes.first(32), pub);
  if (!util::equal_ct(tag, bytes.subspan(32, 32))) return false;
  std::array<std::uint8_t, Proof::kSize - 64> expansion{};
  expand_tag(tag, expansion);
  return util::equal_ct(expansion, bytes.subspan(64));
}

}  // namespace wakurln::zksnark::reference

namespace wakurln::rln::reference {

/// RLN signal verification from the payload itself: the slot index is
/// within the rate `messages_per_epoch`, and the proof verifies for
/// (root, external_nullifier(epoch, slot), H(payload), y, nullifier).
inline bool verify_signal(const zksnark::VerifyingKey& vk, std::uint64_t messages_per_epoch,
                          std::span<const std::uint8_t> payload, const RlnSignal& signal) {
  if (signal.message_index >= messages_per_epoch) return false;
  zksnark::RlnPublicInputs pub;
  pub.root = signal.root;
  pub.epoch = external_nullifier(signal.epoch, signal.message_index, messages_per_epoch);
  pub.x = zksnark::RlnCircuit::message_to_x(payload);
  pub.y = signal.y;
  pub.nullifier = signal.nullifier;
  return zksnark::reference::verify(vk, signal.proof, pub);
}

}  // namespace wakurln::rln::reference
