#include "waku/harness.h"

#include <algorithm>

#include "obs/tracer.h"
#include "sim/topology.h"

namespace wakurln::waku {

SimHarness::SimHarness(HarnessConfig config)
    : config_(config),
      rng_(config.seed),
      scheduler_(config.world_threads, config.node_count),
      network_(scheduler_, rng_, config.link),
      chain_(config.chain) {
  lane_deliveries_.resize(scheduler_.lane_count());
  eth::MembershipConfig mcfg;
  mcfg.tree_depth = config_.rln.tree_depth;
  mcfg.stake_wei = config_.stake_wei;
  mcfg.burn_fraction = config_.burn_fraction;
  contract_ = std::make_unique<eth::RegistryListContract>(chain_, mcfg);
  crs_ = zksnark::MockGroth16::setup(config_.rln.tree_depth, rng_);

  // One group-sync service for the whole world: every peer's tree view is
  // deterministically identical (see group_sync.h), so each contract
  // event is hashed into the Merkle tree once instead of node_count times.
  sync_ = std::make_shared<GroupSync>(chain_, config_.rln.tree_depth);
  const auto& sync = sync_;

  // World-shared immutable state, one copy regardless of node count: the
  // validator context (CRS + verifier + nullifier record store) and the
  // router's parameter block + interned topic table. Each relay below
  // holds shared_ptr handles into these instead of private copies.
  ctx_ = RlnValidatorContext::make(crs_, config_.rln.messages_per_epoch);
  gossip_params_ = std::make_shared<const gossipsub::GossipSubParams>(config_.gossip);
  topic_table_ = std::make_shared<gossipsub::TopicTable>();

  std::vector<sim::NodeId> ids;
  ids.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const sim::NodeId id = network_.add_node({});
    ids.push_back(id);
    relays_.push_back(
        std::make_unique<WakuRelay>(id, network_, gossip_params_, topic_table_));
    chain_.ledger().mint(account_of(i), config_.initial_balance_wei);
    nodes_.push_back(std::make_unique<WakuRlnRelay>(
        *relays_.back(), chain_, *contract_, zksnark::KeyPair{}, account_of(i),
        config_.rln, util::Rng(rng_.next_u64()), sync, ctx_));
  }
  sim::DegreeBias bias;
  bias.extra_links = config_.degree_boost_links;
  bias.nodes.reserve(config_.degree_boost_nodes.size());
  for (const std::size_t i : config_.degree_boost_nodes) bias.nodes.push_back(ids.at(i));
  sim::build_topology(network_, ids, config_.topology, config_.extra_links_per_node,
                      config_.erdos_renyi_p, rng_, bias);
  if (config_.link_profile == sim::LinkProfile::kGeo) {
    sim::apply_geo_latency(network_, ids, config_.link);
  }
  for (auto& r : relays_) r->start();

  // Block mining as a first-class periodic timer: one stored callback,
  // re-armed by the engine after each block (no per-block lambda churn).
  const sim::TimeUs block_us = chain_.config().block_time_seconds * sim::kUsPerSecond;
  mine_timer_ = scheduler_.schedule_periodic(block_us, block_us, [this] {
    chain_.mine_block(scheduler_.now() / sim::kUsPerSecond);
  });
}

void SimHarness::subscribe_all(const gossipsub::TopicId& topic) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->subscribe(topic, [this, i](const gossipsub::TopicId&,
                                          const util::SharedBytes& payload) {
      // Record into the executing lane's private log, keyed by the event
      // stamp — deliveries() merges the logs back into serial order.
      lane_deliveries_[scheduler_.current_lane()].emplace_back(
          scheduler_.current_stamp(), Delivery{i, payload, scheduler_.now()});
      if (tracer_ != nullptr) {
        tracer_->instant("deliver", scheduler_.now(),
                         static_cast<std::uint32_t>(i));
      }
    });
  }
}

void SimHarness::register_all() {
  for (auto& n : nodes_) n->request_registration();
  run_seconds(chain_.config().block_time_seconds + 3);
}

void SimHarness::register_nodes(std::span<const std::size_t> indices) {
  for (const std::size_t i : indices) nodes_.at(i)->request_registration();
  run_seconds(chain_.config().block_time_seconds + 3);
}

void SimHarness::run_seconds(std::uint64_t seconds) {
  scheduler_.run_for(seconds * sim::kUsPerSecond);
}

void SimHarness::run_ms(std::uint64_t ms) {
  scheduler_.run_for(ms * sim::kUsPerMs);
}

const std::vector<SimHarness::Delivery>& SimHarness::deliveries() const {
  // Fold the per-lane logs into the merged history. Every unfolded entry
  // carries a stamp no older than anything already folded (folds happen
  // between runs, and stamps are monotone within a run), so sorting the
  // fresh tail and appending preserves global stamp order.
  std::size_t fresh = 0;
  for (const auto& lane : lane_deliveries_) fresh += lane.size();
  if (fresh == 0) return deliveries_;
  std::vector<std::pair<sim::Scheduler::Stamp, Delivery>> tail;
  tail.reserve(fresh);
  for (auto& lane : lane_deliveries_) {
    for (auto& entry : lane) tail.push_back(std::move(entry));
    lane.clear();
  }
  std::stable_sort(tail.begin(), tail.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  deliveries_.reserve(deliveries_.size() + tail.size());
  for (auto& entry : tail) deliveries_.push_back(std::move(entry.second));
  return deliveries_;
}

void SimHarness::clear_deliveries() {
  deliveries_.clear();
  for (auto& lane : lane_deliveries_) lane.clear();
}

std::size_t SimHarness::nodes_delivered(const util::Bytes& payload) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::size_t count = 0;
  for (const Delivery& d : deliveries()) {
    if (d.payload == payload && !seen[d.node_index]) {
      seen[d.node_index] = true;
      ++count;
    }
  }
  return count;
}

void SimHarness::attach_observability(obs::Registry& reg, obs::Tracer* tracer) {
  tracer_ = tracer;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->set_tracer(tracer, static_cast<std::uint32_t>(i));
    relays_[i]->router().set_tracer(tracer);
  }
  network_.instrument(reg);
  if (!reg.enabled()) return;

  // Pull probes, registered in a fixed order (= time-series column order).
  // Every value below is a pure function of the simulated workload, so the
  // sampled rows stay byte-identical across seeds-in-parallel runs.
  reg.probe("delivered_total",
            [this] { return static_cast<double>(deliveries().size()); });
  reg.probe("rln_accepted", [this] {
    return static_cast<double>(aggregate_stats().accepted);
  });
  reg.probe("rln_double_signals", [this] {
    return static_cast<double>(aggregate_stats().double_signals);
  });
  reg.probe("rln_slashes_submitted", [this] {
    return static_cast<double>(aggregate_stats().slashes_submitted);
  });
  reg.probe("proof_verifications", [this] {
    return static_cast<double>(aggregate_stats().proof_verifications);
  });
  reg.probe("proof_cache_hits", [this] {
    return static_cast<double>(aggregate_stats().proof_cache_hits);
  });
  reg.probe("proof_cache_hit_rate", [this] {
    const auto s = aggregate_stats();
    const std::uint64_t lookups = s.proof_verifications + s.proof_cache_hits;
    return lookups == 0 ? 0.0
                        : static_cast<double>(s.proof_cache_hits) /
                              static_cast<double>(lookups);
  });
  reg.probe("group_root_updates", [this] {
    return static_cast<double>(sync_->stats().root_updates);
  });
  reg.probe("group_sync_bytes", [this] {
    return static_cast<double>(sync_->stats().sync_bytes);
  });
  reg.probe("eth_stake_burnt_wei", [this] {
    return static_cast<double>(chain_.ledger().burnt_total());
  });
  reg.probe("scheduler_queue",
            [this] { return static_cast<double>(scheduler_.pending()); });
  reg.probe("scheduler_queue_peak", [this] {
    return static_cast<double>(scheduler_.stats().peak_pending);
  });
  reg.probe("nullifier_bytes_total", [this] {
    // Per-node membership views plus the shared record arena, once.
    std::size_t total = ctx_->memory_bytes();
    for (const auto& n : nodes_) total += n->nullifier_map_bytes();
    return static_cast<double>(total);
  });
  reg.probe("mem_router_bytes", [this] {
    // Per-node routing state plus the shared parameter block and topic
    // table, once.
    std::size_t total = router_shared_bytes();
    for (const auto& r : relays_) total += r->router().memory_bytes();
    return static_cast<double>(total);
  });
  reg.probe("mem_mcache_bytes", [this] {
    std::size_t total = 0;
    for (const auto& r : relays_) total += r->router().mcache().memory_bytes();
    return static_cast<double>(total);
  });
  reg.probe("mem_merkle_bytes",
            [this] { return static_cast<double>(sync_->memory_bytes()); });
  reg.probe("mem_event_pool_bytes", [this] {
    return static_cast<double>(scheduler_.memory_bytes());
  });
  reg.probe("mem_network_bytes", [this] {
    return static_cast<double>(network_.memory_bytes());
  });
  reg.probe("net_frames_sent", [this] {
    return static_cast<double>(network_.stats().frames_sent);
  });
  reg.probe("net_bytes_sent", [this] {
    return static_cast<double>(network_.stats().bytes_sent);
  });
}

WakuRlnRelay::Stats SimHarness::aggregate_stats() const {
  WakuRlnRelay::Stats total;
  for (const auto& n : nodes_) {
    const auto& s = n->stats();
    total.published += s.published;
    total.accepted += s.accepted;
    total.invalid_envelope += s.invalid_envelope;
    total.invalid_epoch += s.invalid_epoch;
    total.invalid_slot += s.invalid_slot;
    total.unknown_root += s.unknown_root;
    total.invalid_proof += s.invalid_proof;
    total.duplicates += s.duplicates;
    total.double_signals += s.double_signals;
    total.slashes_submitted += s.slashes_submitted;
    total.proof_verifications += s.proof_verifications;
    total.proof_cache_hits += s.proof_cache_hits;
  }
  return total;
}

}  // namespace wakurln::waku
