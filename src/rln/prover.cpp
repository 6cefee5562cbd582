#include "rln/prover.h"

#include <stdexcept>

#include "hash/poseidon.h"
#include "shamir/shamir.h"

namespace wakurln::rln {

using field::Fr;

RlnProver::RlnProver(zksnark::ProvingKey proving_key, Identity identity,
                     std::uint64_t messages_per_epoch)
    : proving_key_(std::move(proving_key)),
      identity_(identity),
      messages_per_epoch_(messages_per_epoch) {
  if (messages_per_epoch_ == 0) {
    throw std::invalid_argument("RlnProver: rate must be positive");
  }
}

std::optional<RlnSignal> RlnProver::create_signal(std::span<const std::uint8_t> payload,
                                                  std::uint64_t epoch,
                                                  const RlnGroup& group,
                                                  std::uint64_t leaf_index,
                                                  util::Rng& rng,
                                                  std::uint64_t message_index) const {
  if (message_index >= messages_per_epoch_) return std::nullopt;
  if (!group.is_active(leaf_index) || group.tree().leaf(leaf_index) != identity_.pk) {
    return std::nullopt;
  }

  const Fr ext = external_nullifier(epoch, message_index, messages_per_epoch_);
  const Fr a1 = hash::poseidon_hash2(identity_.sk, ext);
  const Fr x = zksnark::RlnCircuit::message_to_x(payload);
  const shamir::Share share = shamir::make_share(identity_.sk, a1, x);

  zksnark::RlnPublicInputs pub;
  pub.root = group.root();
  pub.epoch = ext;
  pub.x = x;
  pub.y = share.y;
  pub.nullifier = hash::poseidon_hash1(a1);

  zksnark::RlnWitness witness;
  witness.sk = identity_.sk;
  witness.path = group.membership_proof(leaf_index);

  const auto proof = zksnark::MockGroth16::prove(proving_key_, witness, pub, rng);
  if (!proof) return std::nullopt;

  RlnSignal signal;
  signal.epoch = epoch;
  signal.message_index = message_index;
  signal.y = share.y;
  signal.nullifier = pub.nullifier;
  signal.root = pub.root;
  signal.proof = *proof;
  return signal;
}

RlnVerifier::RlnVerifier(const zksnark::VerifyingKey& verifying_key,
                         std::uint64_t messages_per_epoch)
    : prepared_(verifying_key), messages_per_epoch_(messages_per_epoch) {
  if (messages_per_epoch_ == 0) {
    throw std::invalid_argument("RlnVerifier: rate must be positive");
  }
}

bool RlnVerifier::verify_prepared(const RlnSignal& signal, const Fr& x) const {
  if (signal.message_index >= messages_per_epoch_) return false;
  zksnark::RlnPublicInputs pub;
  pub.root = signal.root;
  pub.epoch =
      external_nullifier(signal.epoch, signal.message_index, messages_per_epoch_);
  pub.x = x;
  pub.y = signal.y;
  pub.nullifier = signal.nullifier;
  return prepared_.verify(signal.proof, pub);
}

}  // namespace wakurln::rln
