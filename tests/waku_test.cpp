#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baselines/pow.h"
#include "hash/poseidon.h"
#include "sim/topology.h"
#include "support/verify_reference.h"
#include "waku/harness.h"
#include "waku/relay.h"
#include "waku/rln_relay.h"

namespace wakurln::waku {
namespace {

using util::Bytes;
using util::Rng;

// Full-stack fixture: chain + contract + N waku-rln-relay peers on a
// simulated network, with block mining driven by the scheduler.
struct TestNet {
  sim::Scheduler sched;
  Rng rng{777};
  sim::Network net{sched, rng, link()};
  eth::Chain chain{chain_config()};
  std::unique_ptr<eth::RegistryListContract> contract;
  zksnark::KeyPair crs;
  std::vector<std::unique_ptr<WakuRelay>> relays;
  std::vector<std::unique_ptr<WakuRlnRelay>> nodes;
  std::unordered_map<sim::NodeId, std::vector<Bytes>> delivered;

  static sim::LinkParams link() {
    sim::LinkParams l;
    l.base_latency = 20 * sim::kUsPerMs;
    l.jitter = 10 * sim::kUsPerMs;
    return l;
  }
  static eth::Chain::Config chain_config() {
    eth::Chain::Config cfg;
    cfg.block_time_seconds = 12;
    return cfg;
  }
  static WakuRlnConfig rln_config() {
    WakuRlnConfig cfg;
    cfg.tree_depth = 10;
    cfg.epoch_period_seconds = 10;
    cfg.max_delay_seconds = 20;
    return cfg;
  }

  explicit TestNet(std::size_t n, WakuRlnConfig cfg = rln_config()) {
    eth::MembershipConfig mcfg;
    mcfg.tree_depth = cfg.tree_depth;
    contract = std::make_unique<eth::RegistryListContract>(chain, mcfg);
    crs = zksnark::MockGroth16::setup(cfg.tree_depth, rng);

    std::vector<sim::NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::NodeId id = net.add_node({});
      ids.push_back(id);
      relays.push_back(std::make_unique<WakuRelay>(id, net));
      const eth::Address account = 1000 + i;
      chain.ledger().mint(account, 100'000'000);
      nodes.push_back(std::make_unique<WakuRlnRelay>(
          *relays.back(), chain, *contract, crs, account, cfg, Rng(rng.next_u64())));
    }
    connect_ring_plus_random(net, ids, 3, rng);
    for (auto& r : relays) r->start();

    // Periodic block production on the simulated clock.
    schedule_mining();
  }

  void schedule_mining() {
    sched.schedule_after(chain.config().block_time_seconds * sim::kUsPerSecond, [this] {
      chain.mine_block(sched.now() / sim::kUsPerSecond);
      schedule_mining();
    });
  }

  void subscribe_all(const std::string& topic) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->subscribe(topic, [this, id = relays[i]->id()](
                                     const gossipsub::TopicId&,
                                     const util::SharedBytes& payload) {
        delivered[id].push_back(payload.to_vector());
      });
    }
  }

  void register_all() {
    for (auto& n : nodes) n->request_registration();
    run_seconds(15);  // one block
  }

  void run_seconds(std::uint64_t s) { sched.run_for(s * sim::kUsPerSecond); }

  std::size_t total_delivered() const {
    std::size_t n = 0;
    for (const auto& [id, msgs] : delivered) n += msgs.size();
    return n;
  }
};

TEST(WakuRelayTest, AnonymousPayloadDelivery) {
  sim::Scheduler sched;
  Rng rng(1);
  sim::Network net(sched, rng, TestNet::link());
  std::vector<sim::NodeId> ids;
  std::vector<std::unique_ptr<WakuRelay>> relays;
  for (int i = 0; i < 10; ++i) {
    const auto id = net.add_node({});
    ids.push_back(id);
    relays.push_back(std::make_unique<WakuRelay>(id, net));
  }
  sim::connect_ring_plus_random(net, ids, 3, rng);
  int received = 0;
  for (auto& r : relays) {
    r->start();
    r->subscribe("chat",
                 [&](const gossipsub::TopicId&, const util::SharedBytes&) { ++received; });
  }
  sched.run_for(5 * sim::kUsPerSecond);
  relays[0]->publish("chat", util::to_bytes("hi"));
  sched.run_for(5 * sim::kUsPerSecond);
  EXPECT_EQ(received, 10);
}

TEST(WakuRlnRelayTest, RegistrationConfirmsViaContractEvent) {
  TestNet tn(4);
  EXPECT_FALSE(tn.nodes[0]->is_registered());
  tn.nodes[0]->request_registration();
  EXPECT_FALSE(tn.nodes[0]->is_registered());  // pending until mined
  tn.run_seconds(15);
  EXPECT_TRUE(tn.nodes[0]->is_registered());
  // Every peer's local group observed the same registration event.
  for (auto& n : tn.nodes) {
    EXPECT_EQ(n->group().member_count(), 1u);
  }
}

TEST(WakuRlnRelayTest, PublishRequiresRegistration) {
  TestNet tn(4);
  tn.subscribe_all("t");
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("m")),
            WakuRlnRelay::PublishOutcome::kNotRegistered);
}

TEST(WakuRlnRelayTest, ValidMessageReachesEveryone) {
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("hello rln")),
            WakuRlnRelay::PublishOutcome::kPublished);
  tn.run_seconds(10);
  EXPECT_EQ(tn.total_delivered(), tn.nodes.size());
  for (const auto& [id, msgs] : tn.delivered) {
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0], util::to_bytes("hello rln"));
  }
}

TEST(WakuRlnRelayTest, HonestClientIsRateLimitedLocally) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("first")),
            WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("second-same-epoch")),
            WakuRlnRelay::PublishOutcome::kRateLimited);
  // Next epoch the client may publish again.
  tn.run_seconds(tn.nodes[0]->epoch_scheme().period_seconds());
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("next-epoch")),
            WakuRlnRelay::PublishOutcome::kPublished);
}

TEST(WakuRlnRelayTest, DoubleSignalDetectedAndSlashed) {
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& spammer = *tn.nodes[0];
  const auto account_before = tn.chain.ledger().balance_of(spammer.account());
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("spam-1")),
            WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("spam-2")),
            WakuRlnRelay::PublishOutcome::kPublished);
  (void)account_before;
  tn.run_seconds(30);  // propagate + mine the slash tx

  // Some router detected the double-signal and slashed the spammer.
  std::uint64_t detections = 0, slashes = 0;
  for (auto& n : tn.nodes) {
    detections += n->stats().double_signals;
    slashes += n->stats().slashes_submitted;
  }
  EXPECT_GE(detections, 1u);
  EXPECT_GE(slashes, 1u);
  EXPECT_FALSE(tn.contract->is_active(spammer.identity().pk));
  EXPECT_FALSE(spammer.is_registered());  // self-view updated by event
  // Stake economics: half burnt, half rewarded to some slasher.
  EXPECT_EQ(tn.chain.ledger().burnt_total(), tn.contract->config().stake_wei / 2);
}

TEST(WakuRlnRelayTest, SlashedMemberCannotPublish) {
  TestNet tn(6);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  WakuRlnRelay& spammer = *tn.nodes[0];
  spammer.publish_unchecked("t", util::to_bytes("a"));
  spammer.publish_unchecked("t", util::to_bytes("b"));
  tn.run_seconds(30);
  ASSERT_FALSE(spammer.is_registered());
  EXPECT_EQ(spammer.publish("t", util::to_bytes("after-slash")),
            WakuRlnRelay::PublishOutcome::kNotRegistered);
}

TEST(WakuRlnRelayTest, RepeatedDoubleSignalsSubmitOneSlashPerOffender) {
  // Four messages in one slot: the spammer's neighbours see every one of
  // them directly, so each recovers the same sk up to three times. The
  // guard keyed by that sk lets each relay submit one slash tx.
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  WakuRlnRelay& spammer = *tn.nodes[0];
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("spam-" + std::to_string(i))),
              WakuRlnRelay::PublishOutcome::kPublished);
  }
  tn.run_seconds(30);

  std::uint64_t max_detections = 0;
  for (auto& n : tn.nodes) {
    max_detections = std::max(max_detections, n->stats().double_signals);
    EXPECT_LE(n->stats().slashes_submitted, 1u);
  }
  EXPECT_GE(max_detections, 2u);
  EXPECT_FALSE(tn.contract->is_active(spammer.identity().pk));
  EXPECT_EQ(tn.chain.ledger().burnt_total(), tn.contract->config().stake_wei / 2);
}

TEST(WakuRlnRelayTest, TwoSpammersAreEachSlashedOnce) {
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  for (std::size_t s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      tn.nodes[s]->publish_unchecked(
          "t", util::to_bytes("spam-" + std::to_string(s) + "-" + std::to_string(i)));
    }
  }
  tn.run_seconds(30);

  for (auto& n : tn.nodes) EXPECT_LE(n->stats().slashes_submitted, 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_FALSE(tn.contract->is_active(tn.nodes[s]->identity().pk)) << "spammer " << s;
  }
  EXPECT_EQ(tn.contract->member_count(), tn.nodes.size() - 2);
  // Two slashes, half of each stake burnt: one full stake in total.
  EXPECT_EQ(tn.chain.ledger().burnt_total(), tn.contract->config().stake_wei);
}

TEST(WakuRlnRelayTest, StaleEpochRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  // Craft an envelope for an epoch far in the past (a newly registered
  // peer trying to back-fill history, §III).
  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("stale");
  const std::uint64_t stale_epoch = 0;  // long past at t≈20s? current=2; use far future instead
  (void)stale_epoch;
  // Use a far-future epoch which is unambiguously outside Thr.
  const std::uint64_t future_epoch = sender.current_epoch() + 100;
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  // Build the signal directly against the sender's group view.
  auto group_index = sender.group().index_of(sender.identity().pk);
  ASSERT_TRUE(group_index.has_value());
  Rng prng(5);
  const auto signal =
      prover.create_signal(payload, future_epoch, sender.group(), *group_index, prng);
  ASSERT_TRUE(signal.has_value());
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t epoch_rejections = 0;
  for (auto& n : tn.nodes) epoch_rejections += n->stats().invalid_epoch;
  EXPECT_GE(epoch_rejections, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, GarbageEnvelopeRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.relays[0]->publish("t", util::to_bytes("not an rln envelope"));
  tn.run_seconds(10);
  std::uint64_t invalid = 0;
  for (auto& n : tn.nodes) invalid += n->stats().invalid_envelope;
  EXPECT_GE(invalid, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, ForgedProofRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("forged");
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  Rng prng(6);
  auto signal = prover.create_signal(payload, sender.current_epoch(), sender.group(),
                                     *index, prng);
  ASSERT_TRUE(signal.has_value());
  signal->proof.bytes[40] ^= 0xff;  // corrupt the proof
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t bad_proofs = 0;
  for (auto& n : tn.nodes) bad_proofs += n->stats().invalid_proof;
  EXPECT_GE(bad_proofs, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, NonMemberCannotProduceValidSignal) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  // An outsider with a fresh identity but no registration: the prover
  // refuses (no leaf), and hand-rolling a signal against a fake group
  // fails root acceptance.
  Rng orng(7);
  const rln::Identity outsider = rln::Identity::generate(orng);
  rln::RlnGroup fake_group(tn.rln_config().tree_depth);
  fake_group.add_member(outsider.pk);
  rln::RlnProver prover(tn.crs.pk, outsider);
  const Bytes payload = util::to_bytes("outsider");
  const auto signal =
      prover.create_signal(payload, tn.nodes[1]->current_epoch(), fake_group, 0, orng);
  ASSERT_TRUE(signal.has_value());  // proof against the *fake* root
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t unknown_roots = 0;
  for (auto& n : tn.nodes) unknown_roots += n->stats().unknown_root;
  EXPECT_GE(unknown_roots, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, ReplayWithNewProofIsDuplicateNotSlash) {
  // Re-publishing the same payload in the same epoch with a re-randomised
  // proof yields the same share (x, y): routers must treat it as a
  // duplicate, not slashable evidence.
  TestNet tn(6);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("same-message");
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  Rng prng(8);
  const std::uint64_t epoch = sender.current_epoch();
  const auto s1 = prover.create_signal(payload, epoch, sender.group(), *index, prng);
  const auto s2 = prover.create_signal(payload, epoch, sender.group(), *index, prng);
  ASSERT_TRUE(s1 && s2);
  ASSERT_NE(s1->proof, s2->proof);  // distinct gossip message ids
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*s1, payload));
  tn.run_seconds(5);
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*s2, payload));
  tn.run_seconds(15);

  std::uint64_t duplicates = 0, double_signals = 0;
  for (auto& n : tn.nodes) {
    duplicates += n->stats().duplicates;
    double_signals += n->stats().double_signals;
  }
  EXPECT_GE(duplicates, 1u);
  EXPECT_EQ(double_signals, 0u);
  EXPECT_TRUE(tn.contract->is_active(sender.identity().pk));  // not slashed
}

TEST(WakuRlnRelayTest, EnvelopeRoundTrip) {
  Rng rng(9);
  rln::RlnSignal signal;
  signal.epoch = 99;
  signal.y = field::Fr::random(rng);
  signal.nullifier = field::Fr::random(rng);
  signal.root = field::Fr::random(rng);
  rng.fill(signal.proof.bytes);
  const Bytes payload = util::to_bytes("payload");
  const Bytes envelope = WakuRlnRelay::encode_envelope(signal, payload);
  const auto decoded = WakuRlnRelay::decode_envelope(util::SharedBytes(envelope));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, signal);
  EXPECT_TRUE(decoded->second == std::span<const std::uint8_t>(payload));
  // Trailing garbage is rejected.
  Bytes extended = envelope;
  extended.push_back(0);
  EXPECT_FALSE(WakuRlnRelay::decode_envelope(util::SharedBytes(extended)).has_value());
}

// Every truncation and every single-bit flip of `bytes`.
std::vector<Bytes> truncations_and_bit_flips(const Bytes& bytes) {
  std::vector<Bytes> out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    out.emplace_back(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes m = bytes;
      m[i] ^= static_cast<std::uint8_t>(1u << bit);
      out.push_back(std::move(m));
    }
  }
  return out;
}

TEST(EnvelopeMutationTest, RlnMutantsDecodeConsistentlyAndNeverVerify) {
  // Wire bytes are adversary-controlled. Mutants of a real, verifying
  // envelope must re-encode to exactly their own bytes when they decode,
  // and never verify -- on the production prepared path or the reference
  // transcript (support/verify_reference.h), which must agree.
  Rng rng(2718);
  const zksnark::KeyPair crs = zksnark::MockGroth16::setup(8, rng);
  rln::RlnGroup group(8);
  const rln::Identity id = rln::Identity::generate(rng);
  const std::uint64_t index = group.add_member(id.pk);
  const rln::RlnProver prover(crs.pk, id);
  const rln::RlnVerifier verifier(crs.vk);
  const Bytes payload = util::to_bytes("mutate me");
  const auto signal = prover.create_signal(payload, 42, group, index, rng);
  ASSERT_TRUE(signal.has_value());
  ASSERT_TRUE(rln::reference::verify_signal(crs.vk, 1, payload, *signal));
  ASSERT_TRUE(
      verifier.verify_prepared(*signal, zksnark::RlnCircuit::message_to_x(payload)));
  const Bytes envelope = WakuRlnRelay::encode_envelope(*signal, payload);

  std::vector<Bytes> mutants = truncations_and_bit_flips(envelope);
  Rng mrng(31337);
  for (int i = 0; i < 2000; ++i) {
    // 1-4 distinct positions, each XORed with a non-zero byte, so every
    // mutant differs from the original; every third one grows a tail.
    Bytes m = envelope;
    std::vector<std::size_t> at;
    const std::size_t writes = 1 + mrng.next_u64() % 4;
    while (at.size() < writes) {
      const std::size_t pos = mrng.next_u64() % m.size();
      if (std::find(at.begin(), at.end(), pos) == at.end()) at.push_back(pos);
    }
    for (const std::size_t pos : at) {
      m[pos] ^= static_cast<std::uint8_t>(1 + mrng.next_u64() % 255);
    }
    if (i % 3 == 0) {
      for (std::uint64_t k = mrng.next_u64() % 5; k > 0; --k) {
        m.push_back(static_cast<std::uint8_t>(mrng.next_u64()));
      }
    }
    mutants.push_back(std::move(m));
  }

  std::size_t decoded = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const Bytes& m = mutants[i];
    const auto parsed = WakuRlnRelay::decode_envelope(util::SharedBytes(m));
    if (!parsed) continue;
    ++decoded;
    const rln::RlnSignal& sig = parsed->first;
    const Bytes body = parsed->second.to_vector();
    ASSERT_EQ(WakuRlnRelay::encode_envelope(sig, body), m) << "mutant " << i;
    const bool reference = rln::reference::verify_signal(crs.vk, 1, body, sig);
    ASSERT_EQ(verifier.verify_prepared(sig, zksnark::RlnCircuit::message_to_x(body)),
              reference)
        << "mutant " << i;
    ASSERT_FALSE(reference) << "mutant " << i;
  }
  // At least every payload and proof bit flip parses, so the sweep really
  // reaches both verifiers.
  EXPECT_GE(decoded, 8 * (payload.size() + zksnark::Proof::kSize));
}

TEST(EnvelopeMutationTest, PowMutantsNeverThrowAndRoundTrip) {
  const Bytes wire = baselines::pow_seal(util::to_bytes("mutate me"), 4).serialize();
  for (const Bytes& m : truncations_and_bit_flips(wire)) {
    std::optional<baselines::PowEnvelope> env;
    ASSERT_NO_THROW(env = baselines::PowEnvelope::deserialize(m));
    if (env) {
      ASSERT_EQ(env->serialize(), m);
    }
  }
}

TEST(WakuRlnRelayTest, CrsDepthMismatchThrows) {
  TestNet tn(1);
  WakuRlnConfig bad = TestNet::rln_config();
  bad.tree_depth = 12;  // CRS built for depth 10
  Rng rng(10);
  EXPECT_THROW(WakuRlnRelay(*tn.relays[0], tn.chain, *tn.contract, tn.crs, 1, bad,
                            Rng(1)),
               std::invalid_argument);
}

TEST(WakuRlnRelayTest, ProofCacheSkipsRepeatVerificationOnRedelivery) {
  // Two peers with a fast-expiring gossip seen-cache: re-publishing the
  // exact same envelope re-enters the receiver's validator after seen
  // expiry, and the message-id proof cache answers instead of the
  // zkSNARK verifier. The outcome stays the duplicate-ignore of the
  // nullifier map — only the repeat verification is saved.
  Rng rng(414);
  sim::Scheduler sched;
  sim::Network net{sched, rng, TestNet::link()};
  eth::Chain chain{TestNet::chain_config()};
  eth::MembershipConfig mcfg;
  const WakuRlnConfig cfg = TestNet::rln_config();
  mcfg.tree_depth = cfg.tree_depth;
  eth::RegistryListContract contract(chain, mcfg);
  const zksnark::KeyPair crs = zksnark::MockGroth16::setup(cfg.tree_depth, rng);

  gossipsub::GossipSubParams gossip;
  gossip.seen_ttl = 1 * sim::kUsPerSecond;  // heartbeats expire seen ids fast

  const sim::NodeId ida = net.add_node({});
  const sim::NodeId idb = net.add_node({});
  WakuRelay relay_a(ida, net, gossip);
  WakuRelay relay_b(idb, net, gossip);
  chain.ledger().mint(1, 100'000'000);
  chain.ledger().mint(2, 100'000'000);
  WakuRlnRelay a(relay_a, chain, contract, crs, 1, cfg, Rng(rng.next_u64()));
  WakuRlnRelay b(relay_b, chain, contract, crs, 2, cfg, Rng(rng.next_u64()));
  net.connect(ida, idb);
  relay_a.start();
  relay_b.start();
  a.subscribe("t", [](const gossipsub::TopicId&, const util::SharedBytes&) {});
  b.subscribe("t", [](const gossipsub::TopicId&, const util::SharedBytes&) {});

  a.request_registration();
  sched.run_for(2 * sim::kUsPerSecond);
  chain.mine_block(sched.now() / sim::kUsPerSecond);
  sched.run_for(3 * sim::kUsPerSecond);
  ASSERT_TRUE(a.is_registered());

  // One signal, serialized once, published twice: identical message id.
  rln::RlnProver prover(crs.pk, a.identity(), cfg.messages_per_epoch);
  Rng prng(7);
  const Bytes payload = util::to_bytes("cache me");
  const auto index = a.group().index_of(a.identity().pk);
  ASSERT_TRUE(index.has_value());
  const auto signal =
      prover.create_signal(payload, a.current_epoch(), a.group(), *index, prng);
  ASSERT_TRUE(signal.has_value());
  const Bytes envelope = WakuRlnRelay::encode_envelope(*signal, payload);

  relay_a.publish("t", envelope);
  sched.run_for(3 * sim::kUsPerSecond);  // deliver + expire b's seen entry
  EXPECT_EQ(b.stats().proof_verifications, 1u);
  EXPECT_EQ(b.stats().accepted, 1u);

  // Re-send exactly the same frame, skipping A's own validator (which
  // would classify it as a duplicate and drop the publish locally).
  relay_a.publish("t", envelope, /*apply_validator=*/false);
  sched.run_for(3 * sim::kUsPerSecond);
  EXPECT_EQ(b.stats().proof_verifications, 1u);  // no repeat verify
  EXPECT_EQ(b.stats().proof_cache_hits, 1u);
  EXPECT_EQ(b.stats().duplicates, 1u);  // nullifier map still says duplicate
}

// ---------------------------------------------------------------------------
// GroupSync against a per-event reference, checked at every block end.

// Test-local oracle: one RlnGroup mutation per contract event, in event
// order, recording the distinct-root sequence and the counters GroupSync
// keeps. This is the paper's "every peer applies every event" model,
// written independently of GroupSync.
struct PerEventGroup {
  rln::RlnGroup group;
  std::vector<field::Fr> roots;
  std::uint64_t registrations = 0;
  std::uint64_t slashes = 0;
  std::uint64_t root_updates = 0;

  PerEventGroup(eth::Chain& chain, std::size_t depth) : group(depth) {
    roots.push_back(group.root());
    chain.subscribe_events([this](const eth::ContractEvent& ev, const eth::Block&) {
      if (const auto* reg = std::get_if<eth::MemberRegistered>(&ev)) {
        group.add_member(reg->pk);
        ++registrations;
        ++root_updates;
      } else if (const auto* slashed = std::get_if<eth::MemberSlashed>(&ev)) {
        ++slashes;
        if (group.is_active(slashed->index)) {
          group.remove_member(slashed->index);
          ++root_updates;
        }
      }
      if (roots.back() != group.root()) roots.push_back(group.root());
    });
  }
};

// Drives one (chain, contract) stack carrying both a GroupSync and the
// per-event oracle through a mixed transaction schedule and asserts the
// externally observable sync state matches after every block, multi-join
// blocks included.
TEST(GroupSyncBatchTest, BatchedBlocksMatchPerEventApplication) {
  eth::MembershipConfig mcfg;
  mcfg.tree_depth = 8;
  eth::Chain chain{TestNet::chain_config()};
  eth::RegistryListContract contract(chain, mcfg);
  GroupSync sync(chain, mcfg.tree_depth);
  PerEventGroup oracle(chain, mcfg.tree_depth);

  Rng rng(4040);
  std::vector<field::Fr> sks;
  std::uint64_t now = 0;
  const auto expect_synced = [&](int block) {
    ASSERT_EQ(sync.group().root(), oracle.group.root()) << "block " << block;
    ASSERT_EQ(sync.group().member_count(), oracle.group.member_count());
    // A block of k registrations must add k distinct roots, not one, and
    // each at its own position in the sequence.
    ASSERT_EQ(sync.total_roots(), oracle.roots.size()) << "block " << block;
    const std::uint64_t total = oracle.roots.size();
    const std::uint64_t first =
        total > GroupSync::kMaxRootHistory ? total - GroupSync::kMaxRootHistory : 0;
    for (std::uint64_t i = first; i < total; ++i) {
      ASSERT_TRUE(sync.root_in_window(oracle.roots[i], i))
          << "root " << i << " after block " << block;
    }
    const GroupSync::Stats& st = sync.stats();
    ASSERT_EQ(st.registrations_applied, oracle.registrations) << "block " << block;
    ASSERT_EQ(st.slashes_applied, oracle.slashes) << "block " << block;
    ASSERT_EQ(st.root_updates, oracle.root_updates) << "block " << block;
    ASSERT_EQ(st.sync_bytes,
              GroupSync::kEventWireBytes * (oracle.registrations + oracle.slashes))
        << "block " << block;
  };

  // Block shapes: a registration storm (6 joins in one block), a mixed
  // block whose slash lands *after* same-block registrations (the slash
  // reads the membership those joins just changed), an empty block, and
  // a slash-only block.
  for (int block = 0; block < 8; ++block) {
    for (const eth::Address account : {1, 2}) chain.ledger().mint(account, 100'000'000);
    const int joins = (block % 3 == 0) ? 6 : (block % 3 == 1 ? 3 : 0);
    for (int j = 0; j < joins; ++j) {
      const field::Fr sk = field::Fr::random(rng);
      sks.push_back(sk);
      const field::Fr pk = hash::poseidon_hash1(sk);
      chain.submit(
          1, mcfg.stake_wei, eth::MembershipContract::kRegisterCalldataBytes,
          [&contract, pk](eth::TxContext& ctx) { contract.register_member(ctx, pk); },
          now);
    }
    if (block >= 2 && block % 2 == 0) {
      const field::Fr sk = sks[static_cast<std::size_t>(block)];  // post-join slash
      chain.submit(
          2, 0, eth::MembershipContract::kSlashCalldataBytes,
          [&contract, sk](eth::TxContext& ctx) { contract.slash(ctx, sk); }, now);
    }
    now += chain.config().block_time_seconds;
    chain.mine_block(now);
    expect_synced(block);
  }
  // The schedule above really exercised both event kinds.
  EXPECT_EQ(oracle.registrations, sks.size());
  EXPECT_EQ(oracle.slashes, 3u);
}

// A registration is in the tree, and its root in the history, by the time
// any later event subscriber runs: relays subscribe after their GroupSync
// and read the group from their own handlers.
TEST(GroupSyncTest, RegistrationIsAppliedBeforeLaterSubscribers) {
  eth::MembershipConfig mcfg;
  mcfg.tree_depth = 8;
  eth::Chain chain{TestNet::chain_config()};
  eth::RegistryListContract contract(chain, mcfg);
  GroupSync sync(chain, mcfg.tree_depth);

  std::uint64_t seen = 0;
  std::uint64_t roots_before = sync.total_roots();
  chain.subscribe_events([&](const eth::ContractEvent& ev, const eth::Block&) {
    const auto* reg = std::get_if<eth::MemberRegistered>(&ev);
    ASSERT_NE(reg, nullptr);
    ++seen;
    EXPECT_EQ(sync.group().index_of(reg->pk), std::optional<std::uint64_t>(reg->index));
    EXPECT_EQ(sync.total_roots(), roots_before + 1) << "registration " << reg->index;
    EXPECT_EQ(sync.stats().registrations_applied, seen);
    roots_before = sync.total_roots();
  });

  // Three registrations sealed into one block.
  Rng rng(5150);
  chain.ledger().mint(1, 100'000'000);
  for (int j = 0; j < 3; ++j) {
    const field::Fr pk = hash::poseidon_hash1(field::Fr::random(rng));
    chain.submit(
        1, mcfg.stake_wei, eth::MembershipContract::kRegisterCalldataBytes,
        [&contract, pk](eth::TxContext& ctx) { contract.register_member(ctx, pk); }, 0);
  }
  chain.mine_block(chain.config().block_time_seconds);
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(sync.group().member_count(), 3u);
}

TEST(WakuRlnRelayTest, SharedGroupSyncMatchesPrivateViews) {
  // A world where every peer shares one GroupSync must expose the same
  // roots and membership as per-peer private syncs (the views are
  // deterministically identical; sharing only removes redundant hashing).
  TestNet tn(3);  // private syncs
  for (auto& n : tn.nodes) n->request_registration();
  tn.run_seconds(15);
  const field::Fr private_root = tn.nodes[0]->group().root();
  EXPECT_EQ(tn.nodes[1]->group().root(), private_root);
  EXPECT_EQ(tn.nodes[2]->group().root(), private_root);
  EXPECT_EQ(tn.nodes[0]->group().member_count(), 3u);
  // Harness worlds share one sync; same membership state shape.
  HarnessConfig hc = HarnessConfig::defaults();
  hc.node_count = 3;
  hc.seed = tn.rng.next_u64() | 1;
  SimHarness world(hc);
  world.register_all();
  EXPECT_EQ(world.node(0).group().member_count(), 3u);
  EXPECT_EQ(world.node(0).group().root(), world.node(2).group().root());
  EXPECT_EQ(&world.node(0).group(), &world.node(1).group());  // one tree
}

}  // namespace
}  // namespace wakurln::waku
