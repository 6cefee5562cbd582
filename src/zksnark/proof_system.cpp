#include "zksnark/proof_system.h"

#include <algorithm>

#include "hash/sha256.h"
#include "util/serde.h"

namespace wakurln::zksnark {

namespace {

// MAC transcript: circuit_id || depth || salt || public inputs.
hash::Digest binding_tag(const std::array<std::uint8_t, 32>& secret,
                         const std::string& circuit_id, std::size_t depth,
                         std::span<const std::uint8_t> salt,
                         const RlnPublicInputs& pub) {
  util::ByteWriter w;
  w.put_var(util::to_bytes(circuit_id));
  w.put_u64(depth);
  w.put_raw(salt);
  w.put_raw(pub.serialize());
  return hash::hmac_sha256(secret, w.data());
}

// Deterministically expands a 32-byte tag to fill the Groth16-sized proof.
void expand_tag(const hash::Digest& tag, std::span<std::uint8_t> out) {
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

}  // namespace

KeyPair MockGroth16::setup(std::size_t tree_depth, util::Rng& rng) {
  KeyPair keys;
  keys.pk.circuit_id = RlnCircuit::kCircuitId;
  keys.pk.tree_depth = tree_depth;
  rng.fill(keys.pk.binding_secret);
  keys.pk.simulated_size_bytes = modelled_proving_key_bytes(tree_depth);

  keys.vk.circuit_id = keys.pk.circuit_id;
  keys.vk.tree_depth = tree_depth;
  keys.vk.binding_secret = keys.pk.binding_secret;
  // Groth16 verifying keys are a handful of curve points plus one point per
  // public input: 5 public inputs here.
  keys.vk.simulated_size_bytes = 7 * 64 + 5 * 64;
  return keys;
}

std::optional<Proof> MockGroth16::prove(const ProvingKey& pk, const RlnWitness& witness,
                                        const RlnPublicInputs& pub, util::Rng& rng) {
  if (witness.path.depth() != pk.tree_depth) return std::nullopt;
  if (!RlnCircuit::satisfied(witness, pub)) return std::nullopt;

  Proof proof;
  auto salt = std::span<std::uint8_t>(proof.bytes).first(32);
  rng.fill(salt);
  const hash::Digest tag =
      binding_tag(pk.binding_secret, pk.circuit_id, pk.tree_depth, salt, pub);
  std::copy(tag.begin(), tag.end(), proof.bytes.begin() + 32);
  expand_tag(tag, std::span<std::uint8_t>(proof.bytes).subspan(64));
  return proof;
}

PreparedVerifier::PreparedVerifier(const VerifyingKey& vk) {
  // HMAC key schedule, mirroring hash::hmac_sha256 for a 32-byte key.
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < vk.binding_secret.size(); ++i) {
    ipad[i] = vk.binding_secret[i];
    opad[i] = vk.binding_secret[i];
  }
  for (int i = 0; i < 64; ++i) {
    ipad[static_cast<std::size_t>(i)] ^= 0x36;
    opad[static_cast<std::size_t>(i)] ^= 0x5c;
  }
  inner_midstate_.update(ipad);
  outer_midstate_.update(opad);
  // Constant transcript prefix: var(circuit_id) || u64(depth). One-time
  // setup, so the ByteWriter allocation here is fine.
  util::ByteWriter w;
  w.put_var(util::to_bytes(vk.circuit_id));
  w.put_u64(vk.tree_depth);
  inner_midstate_.update(w.data());
}

bool PreparedVerifier::verify(const Proof& proof, const RlnPublicInputs& pub) const {
  const auto salt = std::span<const std::uint8_t>(proof.bytes).first(32);
  // Stack serialisation of the public inputs (RlnPublicInputs::serialize
  // layout: five 32-byte big-endian field elements).
  std::array<std::uint8_t, 5 * field::Fr::kByteSize> pub_bytes;
  std::size_t off = 0;
  for (const field::Fr* f : {&pub.root, &pub.epoch, &pub.x, &pub.y, &pub.nullifier}) {
    const auto b = f->to_bytes_be();
    std::copy(b.begin(), b.end(), pub_bytes.begin() + off);
    off += b.size();
  }

  hash::Sha256 inner = inner_midstate_;
  inner.update(salt);
  inner.update(pub_bytes);
  const hash::Digest inner_digest = inner.finalize();
  hash::Sha256 outer = outer_midstate_;
  outer.update(inner_digest);
  const hash::Digest tag = outer.finalize();

  if (!util::equal_ct(tag, std::span<const std::uint8_t>(proof.bytes).subspan(32, 32))) {
    return false;
  }
  // expand_tag without the per-block ByteWriter: SHA(tag || counter).
  std::array<std::uint8_t, 33> block_in;
  std::copy(tag.begin(), tag.end(), block_in.begin());
  std::array<std::uint8_t, Proof::kSize - 64> expansion{};
  std::uint8_t counter = 0;
  std::size_t written = 0;
  while (written < expansion.size()) {
    block_in[32] = counter++;
    const hash::Digest block = hash::Sha256::digest(block_in);
    const std::size_t take = std::min(block.size(), expansion.size() - written);
    std::copy_n(block.begin(), take, expansion.begin() + written);
    written += take;
  }
  return util::equal_ct(expansion, std::span<const std::uint8_t>(proof.bytes).subspan(64));
}

std::size_t MockGroth16::modelled_proving_key_bytes(std::size_t tree_depth) {
  // Calibrated so that the depth-20 circuit matches the paper's 3.89 MB.
  const double per_constraint =
      3.89e6 / static_cast<double>(RlnCircuit::constraint_count(20));
  return static_cast<std::size_t>(per_constraint *
                                  static_cast<double>(RlnCircuit::constraint_count(tree_depth)));
}

}  // namespace wakurln::zksnark
