#pragma once
// WAKU-RLN-RELAY — the paper's contribution (§III): WAKU-RELAY extended
// with RLN so each group member may publish at most one message per epoch.
//
// Per peer this class wires together:
//   * registration        — stake + pk to the membership contract
//   * group sync          — Merkle tree maintained from contract events
//                           (a GroupSync service, shareable across the
//                           peers of one simulated world), with an
//                           acceptable-root window
//   * rate-limited publish — RLN signal attached to every message
//   * routing validation  — proof check, epoch window (Thr = D/T),
//                           nullifier-map double-signal detection, and a
//                           message-id-keyed proof-result cache so IWANT
//                           re-deliveries and gossip duplicates skip the
//                           repeat zkSNARK verification
//   * slashing            — reconstructed sk submitted to the contract;
//                           the slasher earns the reward share

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "eth/membership_contract.h"
#include "rln/epoch.h"
#include "rln/group.h"
#include "rln/identity.h"
#include "rln/nullifier_map.h"
#include "rln/prover.h"
#include "waku/group_sync.h"
#include "waku/relay.h"

namespace wakurln::obs {
class Tracer;
}

namespace wakurln::waku {

/// Immutable validation state every pure relay of a world shares: the CRS,
/// one verifier built from it, and the world's nullifier record store.
/// The old design gave each node a private copy of all three; one context
/// per world is what lets a 250k-node harness hold a single CRS and a
/// single deduplicated record arena. A relay constructed without a
/// context builds a private one from its own CRS copy.
struct RlnValidatorContext {
  zksnark::KeyPair crs;
  rln::RlnVerifier verifier;
  std::shared_ptr<rln::NullifierStore> store;

  static std::shared_ptr<const RlnValidatorContext> make(
      zksnark::KeyPair crs, std::uint64_t messages_per_epoch);

  /// Modeled resident bytes of the shared state (the record store
  /// dominates) — counted once per world by the harness.
  std::size_t memory_bytes() const {
    return sizeof(RlnValidatorContext) + store->memory_bytes();
  }
};

struct WakuRlnConfig {
  /// Membership tree depth (must match the proof-system setup).
  std::size_t tree_depth = 20;
  /// Epoch length T in seconds (paper §III).
  std::uint64_t epoch_period_seconds = 10;
  /// Maximum network delay D in seconds; Thr = ceil(D/T).
  std::uint64_t max_delay_seconds = 20;
  /// How many recent roots a router accepts (tolerates peers proving
  /// against a slightly stale tree during group sync).
  std::size_t acceptable_root_window = 5;
  /// Messages each member may publish per epoch. 1 is the paper's scheme;
  /// k > 1 is the RLN-v2-style rate extension: each (epoch, slot) pair is
  /// an independent external nullifier, so slot reuse still leaks the key.
  std::uint64_t messages_per_epoch = 1;
};

class WakuRlnRelay {
 public:
  /// Nullifier records are kept for max(Thr,1) * this many epochs before
  /// pruning.
  static constexpr std::uint64_t kNullifierRetentionFactor = 2;
  /// Capacity of the proof-result cache (message ids, FIFO eviction).
  /// Cheap insurance: a re-delivered message (late IWANT after seen-cache
  /// expiry) reuses its zkSNARK verdict.
  static constexpr std::size_t kProofCacheEntries = 4096;

  enum class PublishOutcome {
    kPublished,
    kNotRegistered,   ///< no confirmed membership yet
    kRateLimited,     ///< already published in this epoch (honest client stop)
    kProofFailed,     ///< local state inconsistent with the group
  };

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t accepted = 0;           ///< valid messages delivered/relayed
    std::uint64_t invalid_envelope = 0;   ///< unparseable data
    std::uint64_t invalid_epoch = 0;      ///< outside Thr window
    std::uint64_t invalid_slot = 0;       ///< message index beyond the rate
    std::uint64_t unknown_root = 0;       ///< not in the acceptable-root window
    std::uint64_t invalid_proof = 0;
    std::uint64_t duplicates = 0;         ///< same share seen again
    std::uint64_t double_signals = 0;     ///< rate violations detected
    std::uint64_t slashes_submitted = 0;  ///< slash txs sent to the contract
    std::uint64_t proof_verifications = 0;  ///< zkSNARK verify calls made
    std::uint64_t proof_cache_hits = 0;     ///< verify calls saved by the cache
  };

  using PayloadHandler =
      std::function<void(const gossipsub::TopicId&, const util::SharedBytes&)>;

  /// `group_sync` may be shared across the peers of one simulated world
  /// (their views are deterministically identical — see group_sync.h);
  /// nullptr creates a private sync. Likewise `ctx` shares the immutable
  /// validator state (CRS + verifier + nullifier record store); nullptr
  /// builds a private context from `crs` (which is ignored when a shared
  /// context is supplied).
  WakuRlnRelay(WakuRelay& relay, eth::Chain& chain,
               eth::MembershipContract& contract, zksnark::KeyPair crs,
               eth::Address account, WakuRlnConfig config, util::Rng rng,
               std::shared_ptr<GroupSync> group_sync = nullptr,
               std::shared_ptr<const RlnValidatorContext> ctx = nullptr);

  // -- membership -------------------------------------------------------
  /// Submits the staking registration transaction; membership becomes
  /// active once the event fires (next mined block).
  std::uint64_t request_registration();
  bool is_registered() const { return own_index_.has_value(); }
  const rln::Identity& identity() const { return identity_; }
  eth::Address account() const { return account_; }

  // -- messaging ----------------------------------------------------------
  /// Subscribes to `topic` with RLN validation installed on the route.
  void subscribe(const gossipsub::TopicId& topic, PayloadHandler handler);

  /// Rate-limited publish (honest client: refuses a second message in the
  /// same epoch locally).
  PublishOutcome publish(const gossipsub::TopicId& topic, const util::Bytes& payload);

  /// Publishes *without* the local rate check — simulates a misbehaving
  /// client; the network detects the double-signal and slashes.
  PublishOutcome publish_unchecked(const gossipsub::TopicId& topic,
                                   const util::Bytes& payload);

  // -- introspection ------------------------------------------------------
  const rln::RlnGroup& group() const { return sync_->group(); }
  const Stats& stats() const { return stats_; }
  std::uint64_t current_epoch() const;
  const rln::EpochScheme& epoch_scheme() const { return epochs_; }
  /// Per-node nullifier view bytes; the shared record store is accounted
  /// once per world via validator_context()->memory_bytes().
  std::size_t nullifier_map_bytes() const { return nullifier_map_.memory_bytes(); }
  const std::shared_ptr<const RlnValidatorContext>& validator_context() const {
    return ctx_;
  }
  /// Attaches the message-lifecycle tracer (nullptr detaches). `track` is
  /// the trace track (= node index) this relay's publish / verify /
  /// cache-hit / drop events land on.
  void set_tracer(obs::Tracer* tracer, std::uint32_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  /// The RLN wire envelope: var(signal) || var(payload).
  static util::Bytes encode_envelope(const rln::RlnSignal& signal,
                                     const util::Bytes& payload);
  /// Parses an envelope; nullopt unless `data` is exactly one well-formed
  /// envelope. The returned payload is a slice sharing `data`'s buffer
  /// (no allocation on the validation hot path).
  static std::optional<std::pair<rln::RlnSignal, util::SharedBytes>> decode_envelope(
      const util::SharedBytes& data);

 private:
  std::uint64_t now_seconds() const;
  sim::TimeUs now_us() const;
  /// Records a validation-drop instant ("drop", args.msg = reason).
  void trace_drop(const char* reason);
  PublishOutcome do_publish(const gossipsub::TopicId& topic,
                            const util::Bytes& payload, bool enforce_rate_limit);
  gossipsub::Validation validate(sim::NodeId source, const gossipsub::GsMessage& msg);
  /// One zkSNARK verification on the caller's x = H(m), answered from
  /// the proof-result cache when `id` was verified before.
  bool verify_proof_cached(const gossipsub::MessageId& id, const field::Fr& x,
                           const rln::RlnSignal& signal);
  void on_chain_event(const eth::ContractEvent& event);
  void submit_slash(const field::Fr& sk);
  bool root_acceptable(const field::Fr& root) const;
  void schedule_nullifier_gc();

  WakuRelay& relay_;
  eth::Chain& chain_;
  eth::MembershipContract& contract_;
  eth::Address account_;
  WakuRlnConfig config_;
  util::Rng rng_;

  rln::Identity identity_;
  rln::EpochScheme epochs_;
  std::shared_ptr<GroupSync> sync_;
  std::shared_ptr<const RlnValidatorContext> ctx_;  ///< world-shared
  rln::NullifierMap nullifier_map_;
  /// Built from the shared CRS on first publish: pure relays (the vast
  /// majority of a large world) never pay for a prover.
  std::unique_ptr<rln::RlnProver> prover_;

  std::optional<std::uint64_t> own_index_;
  std::uint64_t publish_epoch_ = 0;       ///< epoch the counter refers to
  std::uint64_t published_in_epoch_ = 0;  ///< honest messages sent this epoch
  /// Absolute index the shared distinct-root sequence had when this relay
  /// was constructed; roots older than this were never in our window.
  std::uint64_t root_floor_ = 0;
  /// Secrets this relay has submitted a slash for (one tx per offender).
  std::unordered_set<field::Fr, field::FrHash> slash_submitted_;
  /// Proof verdicts by message id, FIFO-bounded at kProofCacheEntries.
  std::unordered_map<gossipsub::MessageId, bool, gossipsub::MessageIdHash> proof_cache_;
  std::deque<gossipsub::MessageId> proof_cache_order_;
  PayloadHandler handler_;
  Stats stats_;
  sim::TimerHandle gc_timer_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace wakurln::waku
