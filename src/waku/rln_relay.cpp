#include "waku/rln_relay.h"

#include <algorithm>

#include "obs/tracer.h"
#include "util/serde.h"

namespace wakurln::waku {

using gossipsub::Validation;

std::shared_ptr<const RlnValidatorContext> RlnValidatorContext::make(
    zksnark::KeyPair crs, std::uint64_t messages_per_epoch) {
  rln::RlnVerifier verifier(crs.vk, messages_per_epoch);
  return std::make_shared<const RlnValidatorContext>(RlnValidatorContext{
      std::move(crs), std::move(verifier), std::make_shared<rln::NullifierStore>()});
}

WakuRlnRelay::WakuRlnRelay(WakuRelay& relay, eth::Chain& chain,
                           eth::MembershipContract& contract, zksnark::KeyPair crs,
                           eth::Address account, WakuRlnConfig config, util::Rng rng,
                           std::shared_ptr<GroupSync> group_sync,
                           std::shared_ptr<const RlnValidatorContext> ctx)
    : relay_(relay),
      chain_(chain),
      contract_(contract),
      account_(account),
      config_(config),
      rng_(rng),
      identity_(rln::Identity::generate(rng_)),
      epochs_(config.epoch_period_seconds, config.max_delay_seconds),
      sync_(group_sync ? std::move(group_sync)
                       : std::make_shared<GroupSync>(chain, config.tree_depth)),
      ctx_(ctx ? std::move(ctx)
               : RlnValidatorContext::make(std::move(crs), config.messages_per_epoch)),
      nullifier_map_(ctx_->store) {
  if (ctx_->crs.pk.tree_depth != config.tree_depth) {
    throw std::invalid_argument("WakuRlnRelay: CRS depth != configured tree depth");
  }
  if (sync_->group().tree_depth() != config.tree_depth) {
    throw std::invalid_argument("WakuRlnRelay: group sync depth != configured depth");
  }
  if (config.acceptable_root_window > GroupSync::kMaxRootHistory) {
    throw std::invalid_argument(
        "WakuRlnRelay: acceptable_root_window exceeds GroupSync::kMaxRootHistory");
  }
  // The current root is r_{floor}; everything older predates this relay
  // and was never in its acceptance window.
  root_floor_ = sync_->current_root_index();
  // The sync's own subscription predates this one, so membership updates
  // are applied to the tree before any relay reads the new root.
  chain_.subscribe_events(
      [this](const eth::ContractEvent& ev, const eth::Block&) { on_chain_event(ev); });
  schedule_nullifier_gc();
}

std::uint64_t WakuRlnRelay::now_seconds() const {
  return relay_.router().network().scheduler().now() / sim::kUsPerSecond;
}

sim::TimeUs WakuRlnRelay::now_us() const {
  return relay_.router().network().scheduler().now();
}

void WakuRlnRelay::trace_drop(const char* reason) {
  if (tracer_ != nullptr) {
    tracer_->instant("drop", now_us(), trace_track_, reason);
  }
}

std::uint64_t WakuRlnRelay::current_epoch() const {
  return epochs_.epoch_at(now_seconds());
}

std::uint64_t WakuRlnRelay::request_registration() {
  const field::Fr pk = identity_.pk;
  return chain_.submit(
      account_, contract_.config().stake_wei,
      eth::MembershipContract::kRegisterCalldataBytes,
      [this, pk](eth::TxContext& ctx) { contract_.register_member(ctx, pk); },
      now_seconds());
}

void WakuRlnRelay::subscribe(const gossipsub::TopicId& topic, PayloadHandler handler) {
  handler_ = std::move(handler);
  relay_.router().set_validator(
      topic, [this](sim::NodeId source, const gossipsub::GsMessage& msg) {
        return validate(source, msg);
      });
  // Validation has already run by the time the relay delivers; unwrap the
  // RLN envelope and hand the bare payload (a zero-copy slice of the
  // message buffer) to the application.
  relay_.subscribe(topic,
                   [this](const gossipsub::TopicId& t, const util::SharedBytes& data) {
                     const auto decoded = decode_envelope(data);
                     if (decoded && handler_) handler_(t, decoded->second);
                   });
}

WakuRlnRelay::PublishOutcome WakuRlnRelay::publish(const gossipsub::TopicId& topic,
                                                   const util::Bytes& payload) {
  return do_publish(topic, payload, /*enforce_rate_limit=*/true);
}

WakuRlnRelay::PublishOutcome WakuRlnRelay::publish_unchecked(
    const gossipsub::TopicId& topic, const util::Bytes& payload) {
  return do_publish(topic, payload, /*enforce_rate_limit=*/false);
}

WakuRlnRelay::PublishOutcome WakuRlnRelay::do_publish(const gossipsub::TopicId& topic,
                                                      const util::Bytes& payload,
                                                      bool enforce_rate_limit) {
  if (!own_index_.has_value()) return PublishOutcome::kNotRegistered;
  const std::uint64_t epoch = current_epoch();
  if (epoch != publish_epoch_) {
    publish_epoch_ = epoch;
    published_in_epoch_ = 0;
  }
  if (enforce_rate_limit && published_in_epoch_ >= config_.messages_per_epoch) {
    return PublishOutcome::kRateLimited;
  }
  // An honest client walks the slot indices; a misbehaving one (unchecked)
  // keeps reusing whatever slot its counter is stuck at, which is exactly
  // the double-signal the network punishes.
  const std::uint64_t slot =
      std::min(published_in_epoch_, config_.messages_per_epoch - 1);
  if (!prover_) {
    // First publish: build the prover from the shared CRS. The ctor draws
    // no randomness, so lazy construction leaves the rng sequence alone.
    prover_ = std::make_unique<rln::RlnProver>(ctx_->crs.pk, identity_,
                                               config_.messages_per_epoch);
  }
  const auto signal =
      prover_->create_signal(payload, epoch, sync_->group(), *own_index_, rng_, slot);
  if (!signal) return PublishOutcome::kProofFailed;

  published_in_epoch_ += enforce_rate_limit ? 1 : 0;
  ++stats_.published;

  // Honest clients run their own validator on publish (recording their
  // share in the local nullifier map); the unchecked path models a
  // modified client that bypasses its own checks.
  const gossipsub::MessageId id =
      relay_.publish(topic, encode_envelope(*signal, payload),
                     /*apply_validator=*/enforce_rate_limit);
  if (tracer_ != nullptr) {
    tracer_->instant("publish", now_us(), trace_track_, obs::short_id(id));
  }
  return PublishOutcome::kPublished;
}

bool WakuRlnRelay::verify_proof_cached(const gossipsub::MessageId& id,
                                       const field::Fr& x,
                                       const rln::RlnSignal& signal) {
  if (const auto it = proof_cache_.find(id); it != proof_cache_.end()) {
    ++stats_.proof_cache_hits;
    if (tracer_ != nullptr) {
      tracer_->instant("cache_hit", now_us(), trace_track_, obs::short_id(id));
    }
    return it->second;
  }
  ++stats_.proof_verifications;
  if (tracer_ != nullptr) {
    tracer_->begin("verify", now_us(), trace_track_, obs::short_id(id));
  }
  const bool ok = ctx_->verifier.verify_prepared(signal, x);
  if (tracer_ != nullptr) tracer_->end(now_us(), trace_track_);
  if (proof_cache_order_.size() >= kProofCacheEntries) {
    proof_cache_.erase(proof_cache_order_.front());
    proof_cache_order_.pop_front();
  }
  proof_cache_.emplace(id, ok);
  proof_cache_order_.push_back(id);
  return ok;
}

gossipsub::Validation WakuRlnRelay::validate(sim::NodeId /*source*/,
                                             const gossipsub::GsMessage& msg) {
  // 1. Envelope shape (zero-copy: the payload is a slice of msg.data).
  const auto decoded = decode_envelope(msg.data);
  if (!decoded) {
    ++stats_.invalid_envelope;
    trace_drop("envelope");
    return Validation::kReject;
  }
  const rln::RlnSignal& signal = decoded->first;
  const util::SharedBytes& payload = decoded->second;

  // 2. Epoch window: |msg.epoch - local| <= Thr (§III).
  if (!epochs_.within_threshold(signal.epoch, current_epoch())) {
    ++stats_.invalid_epoch;
    trace_drop("epoch");
    return Validation::kReject;
  }

  // 2b. Slot index within the configured rate (always 0 in the paper's
  // one-per-epoch scheme).
  if (signal.message_index >= config_.messages_per_epoch) {
    ++stats_.invalid_slot;
    trace_drop("slot");
    return Validation::kReject;
  }

  // 3. Acceptable-root window (group-sync tolerance).
  if (!root_acceptable(signal.root)) {
    ++stats_.unknown_root;
    trace_drop("root");
    return Validation::kIgnore;  // possibly our own stale view: don't punish
  }

  // The share's x coordinate H(m) is a public input of the proof and the
  // key of the nullifier map's line check: hash the payload once for both.
  const field::Fr x = zksnark::RlnCircuit::message_to_x(payload);

  // 4. zkSNARK verification — the content-addressed message id keys a
  // verdict cache, so a re-delivered message costs a map lookup.
  if (!verify_proof_cached(msg.id, x, signal)) {
    ++stats_.invalid_proof;
    trace_drop("proof");
    return Validation::kReject;
  }

  // 5. Nullifier map: double-signal detection.
  const auto check = nullifier_map_.observe(signal.epoch, signal.nullifier, x, signal.y);
  switch (check.outcome) {
    case rln::NullifierMap::Outcome::kDuplicateMessage:
      ++stats_.duplicates;
      return Validation::kIgnore;
    case rln::NullifierMap::Outcome::kDoubleSignal:
      ++stats_.double_signals;
      trace_drop("double_signal");
      if (check.breached_sk) submit_slash(*check.breached_sk);
      return Validation::kReject;
    case rln::NullifierMap::Outcome::kFresh:
      break;
  }

  ++stats_.accepted;
  return Validation::kAccept;
}

void WakuRlnRelay::on_chain_event(const eth::ContractEvent& event) {
  // Tree updates (and the shared root history) were applied by the
  // GroupSync subscriber already; here each peer tracks only its own
  // membership index.
  if (const auto* reg = std::get_if<eth::MemberRegistered>(&event)) {
    if (reg->pk == identity_.pk) own_index_ = reg->index;
  } else if (const auto* slashed = std::get_if<eth::MemberSlashed>(&event)) {
    if (slashed->pk == identity_.pk) own_index_.reset();
  }
}

void WakuRlnRelay::submit_slash(const field::Fr& sk) {
  // One slash tx per offender. The recovered sk names the member as
  // uniquely as pk = H(sk) does, so the guard keys by sk and hashes
  // nothing; the contract derives pk itself.
  if (!slash_submitted_.insert(sk).second) return;
  ++stats_.slashes_submitted;
  // Detection runs on this node's shard lane, but the mempool is world
  // state: defer the transaction to the next window barrier. Deferred
  // actions replay in the detecting events' timestamp order, so the
  // mempool sequence is identical at every thread count. The submission
  // timestamp is captured here, at detection time.
  const std::uint64_t at = now_seconds();
  relay_.router().network().scheduler().run_deferred([this, sk, at] {
    chain_.submit(
        account_, 0, eth::MembershipContract::kSlashCalldataBytes,
        [this, sk](eth::TxContext& ctx) { contract_.slash(ctx, sk); }, at);
  });
}

bool WakuRlnRelay::root_acceptable(const field::Fr& root) const {
  // This relay's logical window is the last acceptable_root_window entries
  // of the distinct-root sequence since its construction: exactly the
  // deque the old per-relay bookkeeping kept, read from the shared
  // history instead of n private copies.
  const std::uint64_t total = sync_->total_roots();
  const std::uint64_t window = config_.acceptable_root_window;
  std::uint64_t first = total > window ? total - window : 0;
  if (root_floor_ > first) first = root_floor_;
  return sync_->root_in_window(root, first);
}

void WakuRlnRelay::schedule_nullifier_gc() {
  // Prune once per epoch; keep a retention window of epochs so that any
  // message still inside the Thr acceptance window has its records. A
  // periodic timer holds the one callback for the node's lifetime — no
  // per-epoch lambda re-capture.
  const std::uint64_t keep_epochs =
      std::max<std::uint64_t>(epochs_.threshold(), 1) * kNullifierRetentionFactor;
  const sim::TimeUs period_us = config_.epoch_period_seconds * sim::kUsPerSecond;
  // Owned by this node's shard lane: the prune touches only this node's
  // nullifier map (the shared store handles its own locking), so GC of
  // different partitions runs in parallel.
  gc_timer_ = relay_.router().network().scheduler().schedule_periodic_for(
      relay_.router().id(), period_us, period_us, [this, keep_epochs] {
        const std::uint64_t epoch = current_epoch();
        if (epoch > keep_epochs) {
          nullifier_map_.prune_before(epoch - keep_epochs);
        }
      });
}

util::Bytes WakuRlnRelay::encode_envelope(const rln::RlnSignal& signal,
                                          const util::Bytes& payload) {
  util::ByteWriter w;
  w.put_var(signal.serialize());
  w.put_var(payload);
  return w.take();
}

std::optional<std::pair<rln::RlnSignal, util::SharedBytes>> WakuRlnRelay::decode_envelope(
    const util::SharedBytes& data) {
  try {
    util::ByteReader r(data.span());
    const auto signal_bytes = r.get_var();
    const auto payload = r.get_var();
    if (!r.empty()) return std::nullopt;
    auto signal = rln::RlnSignal::deserialize(signal_bytes);
    if (!signal) return std::nullopt;
    // The payload view shares data's buffer: no copy on the hot path.
    const auto offset = static_cast<std::size_t>(payload.data() - data.data());
    return std::make_pair(*signal, data.slice(offset, payload.size()));
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace wakurln::waku
