#include "scenario/runner.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/pow.h"
#include "gossipsub/message.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/topology.h"
#include "util/bytes.h"
#include "util/shared_bytes.h"
#include "waku/harness.h"

namespace wakurln::scenario {
namespace {

// Node index layout: [active publishers][pure relays][spammers]
// [burst flooders][adaptive spammers][stormers][replayers][observers].
// The relay band is empty unless spec.publishers caps the publisher set.
enum class Role {
  kHonest,
  kRelay,
  kSpammer,
  kFlooder,
  kAdaptive,
  kStormer,
  kReplayer,
  kObserver,
};

Role role_of(const ScenarioSpec& spec, std::size_t i) {
  const std::size_t honest = spec.honest_publishers();
  if (i < spec.active_publishers()) return Role::kHonest;
  if (i < honest) return Role::kRelay;
  std::size_t edge = honest + spec.adversaries.spammers;
  if (i < edge) return Role::kSpammer;
  edge += spec.adversaries.burst_flooders;
  if (i < edge) return Role::kFlooder;
  edge += spec.adversaries.adaptive_spammers;
  if (i < edge) return Role::kAdaptive;
  edge += spec.storm.stormers;
  if (i < edge) return Role::kStormer;
  edge += spec.replay.replayers;
  if (i < edge) return Role::kReplayer;
  return Role::kObserver;
}

/// Indices of every node that publishes from the start of the traffic
/// phase (and therefore needs membership up front). Stormers are
/// deliberately absent: the registration storm joins them mid-run.
std::vector<std::size_t> publishing_nodes(const ScenarioSpec& spec) {
  std::vector<std::size_t> out;
  out.reserve(spec.active_publishers() + spec.adversaries.total());
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    switch (role_of(spec, i)) {
      case Role::kHonest:
      case Role::kSpammer:
      case Role::kFlooder:
      case Role::kAdaptive:
        out.push_back(i);
        break;
      default:
        break;
    }
  }
  return out;
}

/// Indices of the storm band, in join order.
std::vector<std::size_t> storm_nodes(const ScenarioSpec& spec) {
  std::vector<std::size_t> out;
  out.reserve(spec.storm.stormers);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    if (role_of(spec, i) == Role::kStormer) out.push_back(i);
  }
  return out;
}

/// First node index of the observer coalition (tail band).
std::size_t first_observer(const ScenarioSpec& spec) {
  return spec.nodes - spec.observers;
}

/// Rewires the eclipse-ring coalition around its target publisher: the
/// target's links to non-coalition nodes are severed and every coalition
/// member links to the target directly. The coalition keeps its own base
/// links, so the target stays connected to the overlay — through the
/// observers, which is the point: the target's first hop is always
/// observed. Draws no randomness; kRandomTail placement is a no-op (the
/// coalition is wired like any other node), and kSybilHighDegree is
/// applied earlier, at topology-build time, through the DegreeBias hook.
void apply_observer_placement(const ScenarioSpec& spec, sim::Network& net) {
  if (spec.observers == 0 ||
      spec.observer.placement != ObserverPlacement::kEclipseRing) {
    return;
  }
  const auto target = static_cast<sim::NodeId>(spec.observer.eclipse_target);
  const std::size_t coalition_start = first_observer(spec);
  for (const sim::NodeId peer : net.neighbors(target)) {
    if (static_cast<std::size_t>(peer) < coalition_start) {
      net.disconnect(target, peer);
    }
  }
  for (std::size_t o = coalition_start; o < spec.nodes; ++o) {
    const auto obs = static_cast<sim::NodeId>(o);
    net.connect(target, obs);
    // The ring is wired after the harness applied per-link latency, so
    // geo worlds must derive the new links' params themselves — an
    // eclipse must not come with an accidental uniform-latency shortcut.
    if (spec.link_profile == sim::LinkProfile::kGeo) {
      net.set_link_params(
          target, obs,
          sim::geo_link_params(
              sim::geo_region_of(spec.observer.eclipse_target, spec.nodes),
              sim::geo_region_of(o, spec.nodes), spec.link));
    }
  }
}

/// Topic index node `i`'s epoch-`e` message is published on: round-robin
/// over the configured topics (always 0 for single-topic worlds).
std::size_t topic_of(const ScenarioSpec& spec, std::size_t i, std::uint64_t e) {
  return spec.topics == 1 ? 0 : (i + static_cast<std::size_t>(e)) % spec.topics;
}

/// Topic names of a scenario. Single-topic worlds keep the original
/// "scenario/<name>" id (byte-compatible reports); multi-topic worlds
/// append "/t<k>".
std::vector<std::string> topic_names(const ScenarioSpec& spec) {
  std::vector<std::string> out;
  const std::string base = "scenario/" + spec.name;
  if (spec.topics == 1) {
    out.push_back(base);
    return out;
  }
  out.reserve(spec.topics);
  for (std::size_t k = 0; k < spec.topics; ++k) {
    out.push_back(base + "/t" + std::to_string(k));
  }
  return out;
}

/// Pads `key` with NULs to spec.payload_bytes (workload keys never
/// contain NUL, so key_of can strip the padding).
util::Bytes padded_payload(const ScenarioSpec& spec, const std::string& key) {
  util::Bytes out = util::to_bytes(key);
  if (out.size() < spec.payload_bytes) out.resize(spec.payload_bytes, 0);
  return out;
}

/// Recovers the workload key from a (possibly padded) payload.
std::string key_of(std::span<const std::uint8_t> payload) {
  const auto nul = std::find(payload.begin(), payload.end(), std::uint8_t{0});
  return std::string(payload.begin(), nul);
}

std::string payload_key(char tag, std::size_t node, std::uint64_t epoch,
                        std::uint64_t j) {
  std::string out(1, tag);
  out += '|';
  out += std::to_string(node);
  out += '|';
  out += std::to_string(epoch);
  out += '|';
  out += std::to_string(j);
  return out;
}

struct Publication {
  std::size_t origin = 0;
  sim::TimeUs at = 0;
  std::size_t topic = 0;
};

/// One application-level delivery, keyed by the bare payload.
struct Delivered {
  std::size_t node;
  std::string payload;
  sim::TimeUs at;
};

/// What the workload phase recorded. Ordered containers throughout: metric
/// assembly iterates them and campaign reports are byte-compared.
struct TrafficLog {
  std::uint64_t honest_attempted = 0;
  std::uint64_t honest_published = 0;
  std::uint64_t spam_attempted = 0;
  std::uint64_t spam_published = 0;
  std::map<std::string, Publication> honest;
  std::map<std::string, Publication> spam;
  /// adversary index -> traffic epoch -> messages actually published.
  std::map<std::size_t, std::map<std::uint64_t, std::uint64_t>> adversary_published;
  /// Over-rate probes the adaptive spammers attempted / got onto the wire.
  std::uint64_t adaptive_probes_attempted = 0;
  std::uint64_t adaptive_probes_published = 0;
};

using PublishFn =
    std::function<bool(std::size_t node, std::size_t topic, const std::string& payload)>;

void take_offline(sim::Network& net, sim::NodeId id) {
  for (const sim::NodeId peer : net.neighbors(id)) net.disconnect(id, peer);
  net.drop_in_flight(id);
}

void bring_online(sim::Network& net, sim::NodeId id, const std::vector<char>& online,
                  std::size_t degree, util::Rng& rng) {
  std::vector<sim::NodeId> targets;
  targets.reserve(online.size());
  for (std::size_t j = 0; j < online.size(); ++j) {
    if (online[j] && j != id) targets.push_back(static_cast<sim::NodeId>(j));
  }
  sim::connect_to_random_peers(net, id, targets, degree, rng);
}

/// First traffic-epoch boundary after `sched.now()`: the next protocol
/// epoch boundary, so one workload epoch never straddles two RLN epochs.
/// Shared by drive_traffic and the registration-storm timer (which must
/// agree on where the waves land).
sim::TimeUs traffic_start_us(const ScenarioSpec& spec, const sim::Scheduler& sched) {
  const std::uint64_t now_s = sched.now() / sim::kUsPerSecond;
  const std::uint64_t start_s = (now_s / spec.epoch_seconds + 1) * spec.epoch_seconds;
  return start_s * sim::kUsPerSecond;
}

/// Schedules the honest workload, the adversaries, churn and the partition
/// onto the world clock, runs the traffic phase plus `drain_seconds`, and
/// records what happened into `log` (an out-param so observability probes
/// registered before the traffic phase can read the counters live). All
/// workload randomness is pre-drawn from a dedicated stream in a fixed
/// (epoch-major, node-minor) order, so the decision sequence is a
/// function of the seed alone.
void drive_traffic(const ScenarioSpec& spec, std::uint64_t seed,
                   sim::Scheduler& sched, sim::Network& net,
                   const PublishFn& publish_honest, const PublishFn& publish_spam,
                   std::uint64_t drain_seconds, TrafficLog& log) {
  const sim::TimeUs t_us = spec.epoch_seconds * sim::kUsPerSecond;
  util::Rng traffic_rng(seed ^ 0x7472616666696331ULL);
  util::Rng rewire_rng(seed ^ 0x72656a6f696e3031ULL);

  // Publish offsets stay in the first half of each epoch so a message and
  // its proof always share the epoch they were drawn for.
  const sim::TimeUs start_us = traffic_start_us(spec, sched);

  std::vector<char> online(spec.nodes, 1);

  // Partition: cut the overlay into [0, split) / [split, n) at one epoch
  // boundary, restore the exact severed links at a later one.
  std::vector<std::pair<sim::NodeId, sim::NodeId>> severed;
  if (spec.partition.enabled) {
    const std::uint64_t cut_e =
        std::min(spec.partition.cut_at_epoch, spec.traffic_epochs - 1);
    const std::uint64_t heal_e = std::max(spec.partition.heal_at_epoch, cut_e + 1);
    const auto split = static_cast<std::size_t>(
        static_cast<double>(spec.nodes) * (1.0 - spec.partition.fraction));
    sched.schedule_at(start_us + cut_e * t_us, [&net, &severed, split, n = spec.nodes] {
      for (std::size_t a = 0; a < split; ++a) {
        for (std::size_t b = split; b < n; ++b) {
          const auto ida = static_cast<sim::NodeId>(a);
          const auto idb = static_cast<sim::NodeId>(b);
          if (net.are_connected(ida, idb)) {
            net.disconnect(ida, idb);
            severed.emplace_back(ida, idb);
          }
        }
      }
    });
    sched.schedule_at(start_us + heal_e * t_us, [&net, &severed, &online] {
      for (const auto& [a, b] : severed) {
        // A severed endpoint may have churned offline while the cut was
        // open; its links come back through its own rejoin, not the heal.
        if (online[a] && online[b]) net.connect(a, b);
      }
      severed.clear();
    });
  }

  for (std::uint64_t e = 0; e < spec.traffic_epochs; ++e) {
    const sim::TimeUs epoch_us = start_us + e * t_us;
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      const Role role = role_of(spec, i);

      if (role == Role::kHonest && spec.churn.leave_prob_per_epoch > 0) {
        // Draw both values unconditionally to keep the stream layout fixed.
        const bool leaves = traffic_rng.chance(spec.churn.leave_prob_per_epoch);
        const sim::TimeUs leave_off = traffic_rng.uniform(1, t_us / 4);
        if (leaves) {
          sched.schedule_at(epoch_us + leave_off, [&net, &online, i] {
            if (!online[i]) return;
            online[i] = 0;
            take_offline(net, static_cast<sim::NodeId>(i));
          });
          sched.schedule_at(
              epoch_us + spec.churn.offline_epochs * t_us + leave_off,
              [&net, &online, &rewire_rng, i, degree = spec.churn.rejoin_degree] {
                if (online[i]) return;
                online[i] = 1;
                bring_online(net, static_cast<sim::NodeId>(i), online, degree,
                             rewire_rng);
              });
        }
      }

      const std::size_t topic = topic_of(spec, i, e);
      switch (role) {
        case Role::kRelay:
          break;  // routes and validates, never publishes
        case Role::kHonest: {
          const bool publishes = traffic_rng.chance(spec.honest_publish_prob);
          const sim::TimeUs off = t_us / 4 + traffic_rng.uniform(0, t_us / 4);
          if (!publishes) break;
          sched.schedule_at(epoch_us + off, [&log, &online, &publish_honest, &sched, i,
                                             e, topic] {
            if (!online[i]) return;
            ++log.honest_attempted;
            const std::string key = payload_key('h', i, e, 0);
            if (publish_honest(i, topic, key)) {
              ++log.honest_published;
              log.honest.emplace(key, Publication{i, sched.now(), topic});
            }
          });
          break;
        }
        case Role::kSpammer: {
          const sim::TimeUs off = t_us / 4 + traffic_rng.uniform(0, t_us / 4);
          for (std::uint64_t j = 0; j < spec.adversaries.spam_per_epoch; ++j) {
            sched.schedule_at(
                epoch_us + off + j * sim::kUsPerMs,
                [&log, &publish_spam, &sched, i, e, j, topic] {
                  ++log.spam_attempted;
                  const std::string key = payload_key('s', i, e, j);
                  if (publish_spam(i, topic, key)) {
                    ++log.spam_published;
                    log.spam.emplace(key, Publication{i, sched.now(), topic});
                    ++log.adversary_published[i][e];
                  }
                });
          }
          break;
        }
        case Role::kFlooder: {
          const std::uint64_t burst_e =
              std::min(spec.adversaries.burst_at_epoch, spec.traffic_epochs - 1);
          if (e != burst_e) break;
          const sim::TimeUs off = t_us / 4 + traffic_rng.uniform(0, t_us / 4);
          for (std::uint64_t j = 0; j < spec.adversaries.burst_size; ++j) {
            sched.schedule_at(
                epoch_us + off + j * sim::kUsPerMs,
                [&log, &publish_spam, &sched, i, e, j, topic] {
                  ++log.spam_attempted;
                  const std::string key = payload_key('f', i, e, j);
                  if (publish_spam(i, topic, key)) {
                    ++log.spam_published;
                    log.spam.emplace(key, Publication{i, sched.now(), topic});
                    ++log.adversary_published[i][e];
                  }
                });
          }
          break;
        }
        case Role::kAdaptive: {
          // Exactly messages_per_epoch messages through the *rate-checked*
          // client path: spam the limiter cannot tell from honest traffic
          // and the slasher never sees. On probe epochs, one extra
          // unchecked message right after the allowance — its slot reuse
          // is the double signal the network slashes.
          const sim::TimeUs off = t_us / 4 + traffic_rng.uniform(0, t_us / 4);
          for (std::uint64_t j = 0; j < spec.messages_per_epoch; ++j) {
            sched.schedule_at(
                epoch_us + off + j * sim::kUsPerMs,
                [&log, &publish_honest, &sched, i, e, j, topic] {
                  ++log.spam_attempted;
                  const std::string key = payload_key('a', i, e, j);
                  if (publish_honest(i, topic, key)) {
                    ++log.spam_published;
                    log.spam.emplace(key, Publication{i, sched.now(), topic});
                    ++log.adversary_published[i][e];
                  }
                });
          }
          const bool probes = spec.adversaries.adaptive_probe_every > 0 &&
                              (e + 1) % spec.adversaries.adaptive_probe_every == 0;
          if (!probes) break;
          sched.schedule_at(
              epoch_us + off + (spec.messages_per_epoch + 1) * sim::kUsPerMs,
              [&log, &publish_spam, &sched, i, e, topic] {
                ++log.spam_attempted;
                ++log.adaptive_probes_attempted;
                const std::string key = payload_key('p', i, e, 0);
                if (publish_spam(i, topic, key)) {
                  ++log.spam_published;
                  ++log.adaptive_probes_published;
                  log.spam.emplace(key, Publication{i, sched.now(), topic});
                  ++log.adversary_published[i][e];
                }
              });
          break;
        }
        case Role::kStormer:    // joins are driven by the storm timer,
        case Role::kReplayer:   // replays off the frame tap,
        case Role::kObserver:   // observers never publish
          break;
      }
    }
  }

  sched.run_until(start_us + spec.traffic_epochs * t_us +
                  drain_seconds * sim::kUsPerSecond);
}

/// Registers the workload counters as registry probes (no-op when the
/// registry is disabled). `log` must outlive the sampling run.
void register_workload_probes(obs::Registry& reg, const TrafficLog& log) {
  if (!reg.enabled()) return;
  reg.probe("honest_attempted",
            [&log] { return static_cast<double>(log.honest_attempted); });
  reg.probe("honest_published",
            [&log] { return static_cast<double>(log.honest_published); });
  reg.probe("spam_attempted",
            [&log] { return static_cast<double>(log.spam_attempted); });
  reg.probe("spam_published",
            [&log] { return static_cast<double>(log.spam_published); });
}

/// Per-subsystem resident-memory maxima over the per-epoch samples.
struct MemoryPeaks {
  std::size_t router = 0;
  std::size_t mcache = 0;
  std::size_t nullifier = 0;
  std::size_t merkle = 0;
  std::size_t event_pool = 0;
  std::size_t network = 0;
};

void fill_memory_resources(const MemoryPeaks& peaks, ResourceUsage& resource) {
  resource.mem_router_bytes = static_cast<double>(peaks.router);
  resource.mem_mcache_bytes = static_cast<double>(peaks.mcache);
  resource.mem_nullifier_bytes = static_cast<double>(peaks.nullifier);
  resource.mem_merkle_bytes = static_cast<double>(peaks.merkle);
  resource.mem_event_pool_bytes = static_cast<double>(peaks.event_pool);
  resource.mem_network_bytes = static_cast<double>(peaks.network);
}

/// The coalition-first-spy adversary: colluding silent observer nodes
/// record, per message, which neighbour first handed it to *any* member of
/// the coalition — the earliest arrival across the whole coalition — and
/// guess that neighbour as the originator ("Who started this rumor?",
/// arXiv:1902.07138). How well the guess works is a function of the
/// coalition's structural placement (ObserverSpec), not just its size.
/// The runner feeds it from the network's frame tap (one tap slot is
/// shared between every passive adversary of a scenario).
class FirstSpyObserver {
 public:
  using Decoder = std::function<std::optional<std::string>(const util::SharedBytes&)>;

  FirstSpyObserver(const ScenarioSpec& spec, const sim::Scheduler& sched,
                   Decoder decoder)
      : sched_(sched), decoder_(std::move(decoder)) {
    if (spec.observers == 0) return;
    is_observer_.assign(spec.nodes, 0);
    for (std::size_t i = spec.nodes - spec.observers; i < spec.nodes; ++i) {
      is_observer_[i] = 1;
    }
    lane_seen_.resize(sched.lane_count());
  }

  bool enabled() const { return !is_observer_.empty(); }

  /// Tap callback. Frames deliver on the receiving node's lane, so each
  /// sighting lands in that lane's private map (no shared writes during a
  /// window); within one lane events run in stamp order, so try_emplace
  /// keeps the lane-earliest arrival.
  void on_frame(sim::NodeId from, sim::NodeId to, const sim::Frame& frame) {
    if (!is_observer_[to]) return;
    const auto* rpc = frame.get_if<gossipsub::Rpc>();
    if (rpc == nullptr) return;
    auto& seen = lane_seen_[sched_.current_lane()];
    for (const gossipsub::GsMessagePtr& msg : rpc->publish) {
      if (!msg) continue;
      const auto key = decoder_(msg->data);
      if (key) seen.try_emplace(*key, sched_.current_stamp(), from);
    }
  }

  /// Coalition view after the run: per message, the neighbour whose frame
  /// carried it to *any* observer first — the minimum event stamp across
  /// the per-lane maps, identical at every world_threads.
  const std::unordered_map<std::string, sim::NodeId>& first_seen() const {
    if (!merged_) {
      for (const auto& seen : lane_seen_) {
        for (const auto& [key, entry] : seen) {
          const auto it = first_stamped_.find(key);
          if (it == first_stamped_.end() || entry.first < it->second.first) {
            first_stamped_[key] = entry;
          }
        }
      }
      for (const auto& [key, entry] : first_stamped_) {
        first_seen_[key] = entry.second;
      }
      merged_ = true;
    }
    return first_seen_;
  }

 private:
  using Sighting = std::pair<sim::Scheduler::Stamp, sim::NodeId>;

  const sim::Scheduler& sched_;
  Decoder decoder_;
  std::vector<char> is_observer_;
  std::vector<std::unordered_map<std::string, Sighting>> lane_seen_;
  mutable std::unordered_map<std::string, Sighting> first_stamped_;
  mutable std::unordered_map<std::string, sim::NodeId> first_seen_;
  mutable bool merged_ = false;
};

/// The IWANT-replay adversary: colluding silent peers (the replayer band)
/// record every message delivered to them. After spec.replay.delay_seconds
/// — chosen past the honest routers' seen-cache TTL but inside the RLN
/// epoch acceptance window — the sighting replayer advertises the old id
/// via IHAVE to its honest neighbours. Their unmodified routers answer
/// with IWANT (the id is no longer in their seen cache); the colluding
/// store serves the stale message, forcing a full re-validation on the
/// honest side — which the proof-verdict cache answers without a zkSNARK
/// verify (metric: verifications_saved).
class ReplayAttacker {
 public:
  ReplayAttacker(const ScenarioSpec& spec, sim::Network& net, gossipsub::TopicId topic)
      : spec_(spec), net_(net), topic_(std::move(topic)) {
    if (spec.replay.replayers == 0) return;
    is_replayer_.assign(spec.nodes, 0);
    const std::size_t first = spec.nodes - spec.observers - spec.replay.replayers;
    for (std::size_t i = first; i < spec.nodes - spec.observers; ++i) {
      is_replayer_[i] = 1;
    }
  }

  bool enabled() const { return !is_replayer_.empty(); }

  /// Tap callback, running on the sighting replayer's shard lane. The
  /// colluding store is shared world state, so every write to it (and to
  /// the attack counters) goes through run_deferred: commits execute at
  /// the window barriers, in deferring-stamp order, with the shards
  /// quiesced — the same points and order at every world_threads. During
  /// a window the store is therefore read-only, which makes the inline
  /// lookups below race-free.
  void on_frame(sim::NodeId from, sim::NodeId to, const sim::Frame& frame) {
    if (!is_replayer_[to]) return;
    const auto* rpc = frame.get_if<gossipsub::Rpc>();
    if (rpc == nullptr) return;
    sim::Scheduler& sched = net_.scheduler();
    // Record fresh messages and schedule their delayed IHAVE replay. Two
    // lanes sighting the same new id in one window both defer a commit;
    // the earliest-stamped one wins the emplace at the barrier, so the
    // colluders still record each id exactly once.
    for (const gossipsub::GsMessagePtr& msg : rpc->publish) {
      if (!msg || msg->topic != topic_) continue;
      if (store_.find(msg->id) != store_.end()) continue;
      sched.run_deferred([this, &sched, msg, replayer = to,
                          seen_at = sched.now()] {
        if (!store_.emplace(msg->id, msg).second) return;
        ++ids_recorded_;
        sched.schedule_at(
            seen_at + spec_.replay.delay_seconds * sim::kUsPerSecond,
            [this, replayer, id = msg->id] { send_ihave(replayer, id); });
      });
    }
    // Serve IWANT requests from the colluding store (the replayer's own
    // router mcache has long expired — that is the point of the attack).
    // The reply is sent inline: the sender is the replayer whose lane is
    // executing, so its link-stream draws stay in lane order.
    for (const gossipsub::ControlIWant& iwant : rpc->iwant) {
      gossipsub::Rpc reply;
      for (const gossipsub::MessageId& id : iwant.ids) {
        if (const auto it = store_.find(id); it != store_.end()) {
          reply.publish.push_back(it->second);
        }
      }
      if (!reply.publish.empty()) {
        sched.run_deferred([this, n = reply.publish.size()] { served_ += n; });
        send_rpc(to, from, std::move(reply));
      }
    }
  }

  std::uint64_t ids_recorded() const { return ids_recorded_; }
  std::uint64_t ihaves_sent() const { return ihaves_sent_; }
  std::uint64_t messages_served() const { return served_; }

 private:
  void send_ihave(sim::NodeId replayer, const gossipsub::MessageId& id) {
    gossipsub::Rpc rpc;
    rpc.ihave.push_back({topic_, {id}});
    std::size_t sent = 0;
    // neighbors() is sorted, so the targeted victims are deterministic.
    for (const sim::NodeId peer : net_.neighbors(replayer)) {
      if (sent >= spec_.replay.ihave_fanout) break;
      if (is_replayer_[peer]) continue;  // colluders need no advertisement
      send_rpc(replayer, peer, rpc);
      ++sent;
    }
    ihaves_sent_ += sent;
  }

  void send_rpc(sim::NodeId from, sim::NodeId to, gossipsub::Rpc rpc) {
    if (!net_.are_connected(from, to)) return;
    const auto breakdown = rpc.wire_breakdown();
    net_.send(from, to, sim::Frame::of<gossipsub::Rpc>(std::move(rpc)),
              breakdown.total());
  }

  const ScenarioSpec& spec_;
  sim::Network& net_;
  gossipsub::TopicId topic_;
  std::vector<char> is_replayer_;
  std::unordered_map<gossipsub::MessageId, gossipsub::GsMessagePtr,
                     gossipsub::MessageIdHash>
      store_;
  std::uint64_t ids_recorded_ = 0;
  std::uint64_t ihaves_sent_ = 0;
  std::uint64_t served_ = 0;
};

/// Wires the passive adversaries into the network's single tap slot.
void install_frame_tap(sim::Network& net, FirstSpyObserver& spy,
                       ReplayAttacker* replay) {
  if (!spy.enabled() && (replay == nullptr || !replay->enabled())) return;
  net.set_frame_tap([&spy, replay](sim::NodeId from, sim::NodeId to,
                                   const sim::Frame& frame, std::size_t) {
    if (spy.enabled()) spy.on_frame(from, to, frame);
    if (replay != nullptr && replay->enabled()) replay->on_frame(from, to, frame);
  });
}

/// Steady-state allocation probe. drive_traffic pre-schedules the whole
/// workload synchronously before running it, and the first traffic
/// epoch's delivery wave sets the pool's high-water mark — so the probe
/// fires one epoch into the traffic phase: from there on, a warm pool
/// should serve the run without allocating.
struct SteadyProbe {
  std::uint64_t from_s = 0;   ///< steady phase start (simulated seconds)
  std::uint64_t allocs0 = 0;  ///< pool misses when the probe fired
};

/// `probe` must outlive the run: the scheduled callback writes into it.
void arm_steady_probe(sim::Scheduler& sched, std::uint64_t epoch_seconds,
                      SteadyProbe& probe) {
  const std::uint64_t now_s = sched.now() / sim::kUsPerSecond;
  probe.from_s = (now_s / epoch_seconds + 2) * epoch_seconds;
  sched.schedule_at(probe.from_s * sim::kUsPerSecond, [&sched, &probe] {
    probe.allocs0 = sched.stats().node_allocs;
  });
}

/// Distils the engine's counters (and the probe's steady window) into the
/// deterministic scheduler fields of the run's ResourceUsage.
void capture_scheduler_stats(const sim::Scheduler& sched, const SteadyProbe& probe,
                             ResourceUsage& resource) {
  const sim::Scheduler::Stats& sst = sched.stats();
  resource.events_scheduled = static_cast<double>(sst.scheduled);
  resource.events_executed = static_cast<double>(sst.executed);
  resource.event_allocs = static_cast<double>(sst.node_allocs);
  resource.event_pool_reuses = static_cast<double>(sst.pool_reuses);
  resource.event_queue_peak = static_cast<double>(sst.peak_pending);
  resource.timer_fires = static_cast<double>(sst.timer_fires);
  resource.event_allocs_steady =
      static_cast<double>(sst.node_allocs - probe.allocs0);
  const double steady_sim_s = static_cast<double>(sched.now()) /
                                  static_cast<double>(sim::kUsPerSecond) -
                              static_cast<double>(probe.from_s);
  resource.event_allocs_per_sim_second =
      steady_sim_s <= 0 ? 0 : resource.event_allocs_steady / steady_sim_s;
  resource.world_threads = static_cast<double>(sched.shard_count());
  resource.lane_events_executed.clear();
  resource.lane_events_executed.reserve(sched.lane_count());
  for (std::size_t lane = 0; lane < sched.lane_count(); ++lane) {
    resource.lane_events_executed.push_back(
        static_cast<double>(sched.lane_stats(lane).executed));
  }
  resource.parallel_scratch_bytes =
      static_cast<double>(sched.parallel_scratch_bytes());
}

void fill_delivery_metrics(MetricSet& m, const ScenarioSpec& spec,
                           const TrafficLog& log,
                           const std::vector<Delivered>& deliveries) {
  const auto n = static_cast<double>(spec.nodes);
  std::map<std::string, std::set<std::size_t>> receivers;
  std::vector<double> latencies_ms;
  std::uint64_t honest_deliveries = 0;
  std::uint64_t spam_deliveries = 0;

  for (const Delivered& d : deliveries) {
    if (const auto it = log.honest.find(d.payload); it != log.honest.end()) {
      if (d.node == it->second.origin) continue;  // local self-delivery
      ++honest_deliveries;
      receivers[d.payload].insert(d.node);
      latencies_ms.push_back(static_cast<double>(d.at - it->second.at) /
                             static_cast<double>(sim::kUsPerMs));
    } else if (const auto is = log.spam.find(d.payload); is != log.spam.end()) {
      if (d.node == is->second.origin) continue;
      ++spam_deliveries;
    }
  }

  double ratio_sum = 0;
  for (const auto& [key, pub] : log.honest) {
    const auto it = receivers.find(key);
    const double got = it == receivers.end() ? 0 : static_cast<double>(it->second.size());
    ratio_sum += got / (n - 1);
  }

  m.set("honest_attempted", static_cast<double>(log.honest_attempted));
  m.set("honest_published", static_cast<double>(log.honest_published));
  m.set("honest_deliveries", static_cast<double>(honest_deliveries));
  m.set("delivery_ratio",
        log.honest.empty() ? 0 : ratio_sum / static_cast<double>(log.honest.size()));
  m.set("latency_p50_ms", percentile(latencies_ms, 0.5));
  m.set("latency_p90_ms", percentile(latencies_ms, 0.9));
  m.set("latency_p99_ms", percentile(latencies_ms, 0.99));
  m.set("spam_attempted", static_cast<double>(log.spam_attempted));
  m.set("spam_published", static_cast<double>(log.spam_published));
  m.set("spam_deliveries", static_cast<double>(spam_deliveries));
  m.set("spam_delivery_ratio",
        log.spam_published == 0
            ? 0
            : static_cast<double>(spam_deliveries) /
                  (static_cast<double>(log.spam_published) * (n - 1)));

  // Per-topic view of the honest workload (multi-topic meshes only; the
  // single-topic layout stays exactly as before). Every node subscribes
  // to every topic, so each topic's full-flood denominator is (n - 1).
  if (spec.topics > 1) {
    for (std::size_t t = 0; t < spec.topics; ++t) {
      double t_ratio_sum = 0;
      std::uint64_t t_published = 0;
      for (const auto& [key, pub] : log.honest) {
        if (pub.topic != t) continue;
        ++t_published;
        const auto it = receivers.find(key);
        const double got =
            it == receivers.end() ? 0 : static_cast<double>(it->second.size());
        t_ratio_sum += got / (n - 1);
      }
      const std::string suffix = "_topic" + std::to_string(t);
      m.set("honest_published" + suffix, static_cast<double>(t_published));
      m.set("delivery_ratio" + suffix,
            t_published == 0 ? 0 : t_ratio_sum / static_cast<double>(t_published));
    }
  }
}

struct OverRate {
  std::uint64_t total = 0;       ///< signals beyond the per-epoch allowance
  std::uint64_t by_slashed = 0;  ///< of those, sent by a member later slashed
  std::uint64_t adversaries_slashed = 0;
};

OverRate over_rate(const ScenarioSpec& spec, const TrafficLog& log,
                   const std::function<bool(std::size_t)>& is_slashed) {
  OverRate o;
  const std::uint64_t k = spec.messages_per_epoch;
  for (const auto& [i, per_epoch] : log.adversary_published) {
    const bool slashed = is_slashed(i);
    if (slashed) ++o.adversaries_slashed;
    for (const auto& [e, count] : per_epoch) {
      const std::uint64_t over = count > k ? count - k : 0;
      o.total += over;
      if (slashed) o.by_slashed += over;
    }
  }
  return o;
}

void fill_over_rate_metrics(MetricSet& m, const ScenarioSpec& spec,
                            const TrafficLog& log,
                            const std::function<bool(std::size_t)>& is_slashed) {
  const OverRate o = over_rate(spec, log, is_slashed);
  m.set("adversaries", static_cast<double>(spec.adversaries.total()));
  m.set("adversaries_slashed", static_cast<double>(o.adversaries_slashed));
  m.set("over_rate_signals", static_cast<double>(o.total));
  // Vacuously 1 when no over-rate signal was ever published.
  m.set("over_rate_slashed_ratio",
        o.total == 0 ? 1.0
                     : static_cast<double>(o.by_slashed) / static_cast<double>(o.total));
}

void fill_anonymity_metrics(MetricSet& m, const ScenarioSpec& spec,
                            const TrafficLog& log, const FirstSpyObserver& spy) {
  std::uint64_t observed = 0;
  std::uint64_t correct = 0;
  std::uint64_t target_messages = 0;
  std::uint64_t target_correct = 0;
  std::map<sim::NodeId, std::set<std::size_t>> confusion;
  for (const auto& [key, pub] : log.honest) {
    const bool is_target = spec.observer.placement == ObserverPlacement::kEclipseRing &&
                           pub.origin == spec.observer.eclipse_target;
    if (is_target) ++target_messages;
    const auto it = spy.first_seen().find(key);
    if (it == spy.first_seen().end()) continue;
    ++observed;
    if (it->second == pub.origin) {
      ++correct;
      if (is_target) ++target_correct;
    }
    confusion[it->second].insert(pub.origin);
  }
  double set_sum = 0;
  for (const auto& [key, pub] : log.honest) {
    const auto it = spy.first_seen().find(key);
    if (it == spy.first_seen().end()) continue;
    set_sum += static_cast<double>(confusion[it->second].size());
  }
  const double denom = static_cast<double>(observed);
  m.set("observed_messages", denom);
  m.set("first_spy_accuracy", observed == 0 ? 0 : static_cast<double>(correct) / denom);
  m.set("anonymity_set_mean", observed == 0 ? 0 : set_sum / denom);
  // Coalition view: how many colluding observers, and the probability the
  // coalition deanonymises a published honest message (unobserved
  // messages count as misses — a coalition that sees nothing learns
  // nothing). Comparable across placement strategies at equal size.
  m.set("coalition_size", static_cast<double>(spec.observers));
  m.set("deanonymisation_probability",
        log.honest.empty() ? 0
                           : static_cast<double>(correct) /
                                 static_cast<double>(log.honest.size()));
  if (spec.observer.placement == ObserverPlacement::kEclipseRing) {
    // The eclipsed publisher's traffic alone: the ring's whole purpose.
    // A zero with zero target messages is vacuous — report the count too.
    m.set("eclipse_target_messages", static_cast<double>(target_messages));
    m.set("eclipse_target_deanonymisation",
          target_messages == 0 ? 0
                               : static_cast<double>(target_correct) /
                                     static_cast<double>(target_messages));
  }
}

void fill_network_metrics(MetricSet& m, const ScenarioSpec& spec,
                          const sim::Network::Stats& stats) {
  m.set("bytes_total", static_cast<double>(stats.bytes_sent));
  m.set("bytes_per_node",
        static_cast<double>(stats.bytes_sent) / static_cast<double>(spec.nodes));
  m.set("frames_sent", static_cast<double>(stats.frames_sent));
  m.set("frames_lost", static_cast<double>(stats.frames_lost));
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  spec_.validate();
}

MetricSet ScenarioRunner::run() {
  const auto t0 = std::chrono::steady_clock::now();
  series_ = obs::TimeSeries();
  trace_json_.clear();
  MetricSet m = spec_.protocol == Protocol::kPow ? run_pow() : run_rln();
  resource_.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  resource_.sim_seconds = m.at("sim_seconds");
  return m;
}

MetricSet ScenarioRunner::run_rln() {
  waku::HarnessConfig cfg = waku::HarnessConfig::defaults();
  cfg.node_count = spec_.nodes;
  cfg.world_threads = spec_.world_threads;
  cfg.seed = seed_;
  cfg.topology = spec_.topology;
  cfg.extra_links_per_node = spec_.extra_links_per_node;
  cfg.erdos_renyi_p = spec_.erdos_renyi_p;
  cfg.link = spec_.link;
  cfg.rln.epoch_period_seconds = spec_.epoch_seconds;
  cfg.rln.messages_per_epoch = spec_.messages_per_epoch;
  cfg.link_profile = spec_.link_profile;
  if (spec_.seen_ttl_seconds > 0) {
    cfg.gossip.seen_ttl = spec_.seen_ttl_seconds * sim::kUsPerSecond;
  }
  if (spec_.acceptable_root_window > 0) {
    cfg.rln.acceptable_root_window = spec_.acceptable_root_window;
  }
  if (spec_.observer.placement == ObserverPlacement::kSybilHighDegree) {
    for (std::size_t o = first_observer(spec_); o < spec_.nodes; ++o) {
      cfg.degree_boost_nodes.push_back(o);
    }
    cfg.degree_boost_links = spec_.observer.sybil_extra_links;
  }
  obs::Registry reg(spec_.observability);
  std::optional<obs::Tracer> tracer;
  if (spec_.trace) tracer.emplace(spec_.trace_capacity);

  waku::SimHarness world(cfg);
  apply_observer_placement(spec_, world.network());
  world.attach_observability(reg, tracer ? &*tracer : nullptr);
  TrafficLog log;
  register_workload_probes(reg, log);

  const std::uint64_t payload_allocs0 = util::SharedBytes::allocation_count();
  const std::uint64_t payload_bytes0 = util::SharedBytes::allocated_bytes();

  const std::vector<std::string> topics = topic_names(spec_);
  for (const std::string& t : topics) world.subscribe_all(t);
  if (spec_.register_publishers_only || spec_.storm.stormers > 0) {
    // Storm worlds must leave the storm band unregistered for the waves.
    world.register_nodes(publishing_nodes(spec_));
  } else {
    world.register_all();
  }
  world.run_seconds(5);  // mesh warm-up heartbeats

  FirstSpyObserver spy(spec_, world.scheduler(),
                       [](const util::SharedBytes& data) -> std::optional<std::string> {
                         const auto decoded = waku::WakuRlnRelay::decode_envelope(data);
                         if (!decoded) return std::nullopt;
                         return key_of(decoded->second);
                       });
  ReplayAttacker replay(spec_, world.network(), topics.front());
  install_frame_tap(world.network(), spy, &replay);

  const PublishFn honest = [&](std::size_t node, std::size_t topic,
                               const std::string& key) {
    return world.node(node).publish(topics[topic], padded_payload(spec_, key)) ==
           waku::WakuRlnRelay::PublishOutcome::kPublished;
  };
  const PublishFn spam = [&](std::size_t node, std::size_t topic,
                             const std::string& key) {
    return world.node(node).publish_unchecked(topics[topic],
                                              padded_payload(spec_, key)) ==
           waku::WakuRlnRelay::PublishOutcome::kPublished;
  };

  // Let late frames land and slash transactions get mined before measuring.
  const std::uint64_t drain_seconds = cfg.rln.max_delay_seconds +
                                      2 * world.chain().config().block_time_seconds + 5;

  // Registration storm: a periodic timer (one stored callback, re-armed
  // by the engine) walks the storm band in waves. Each wave requests
  // registrations; once a join has certainly confirmed (the next block
  // boundary has passed), the member double-signals so the network
  // slashes it — the membership tree churns in both directions while the
  // honest workload runs. The timer cancels itself when the band is
  // consumed (safe from inside its own callback).
  struct StormLog {
    std::uint64_t waves = 0;
    std::uint64_t join_requests = 0;
    std::uint64_t double_signal_publishes = 0;
  };
  StormLog storm_log;
  if (spec_.storm.stormers > 0) {
    const auto stormers = std::make_shared<std::vector<std::size_t>>(storm_nodes(spec_));
    const auto next = std::make_shared<std::size_t>(0);
    const auto handle = std::make_shared<sim::TimerHandle>();
    sim::Scheduler& sched = world.scheduler();
    const sim::TimeUs wave_us =
        spec_.storm.wave_every_epochs * spec_.epoch_seconds * sim::kUsPerSecond;
    const sim::TimeUs confirm_us =
        (world.chain().config().block_time_seconds + 2) * sim::kUsPerSecond;
    const sim::TimeUs first_delay = traffic_start_us(spec_, sched) - sched.now();
    *handle = sched.schedule_periodic(first_delay, wave_us, [&world, &storm_log,
                                                             &sched, this, stormers,
                                                             next, handle, confirm_us,
                                                             topics] {
      ++storm_log.waves;
      for (std::size_t j = 0;
           j < spec_.storm.joins_per_wave && *next < stormers->size(); ++j, ++*next) {
        const std::size_t node = (*stormers)[*next];
        world.node(node).request_registration();
        ++storm_log.join_requests;
        if (!spec_.storm.slash_after_join) continue;
        sched.schedule_after(confirm_us, [&world, &storm_log, this, node, topics] {
          for (std::uint64_t j2 = 0; j2 < 2; ++j2) {
            const std::string key = payload_key('g', node, 0, j2);
            if (world.node(node).publish_unchecked(topics.front(),
                                                   padded_payload(spec_, key)) ==
                waku::WakuRlnRelay::PublishOutcome::kPublished) {
              ++storm_log.double_signal_publishes;
            }
          }
        });
      }
      if (*next >= stormers->size()) world.scheduler().cancel(*handle);
    });
  }

  // Sample the nullifier-map footprint — and every other subsystem's
  // resident bytes — once per epoch across the whole run: the per-epoch
  // GC would have pruned the records by the time the drain ends, so an
  // end-of-run reading misses the peak. The memory peaks are reported
  // whether or not the observability layer is on (the sampling lambda is
  // read-only, so its position among same-timestamp events is inert).
  std::size_t nullifier_max = 0;
  MemoryPeaks mem_peaks;
  {
    const std::uint64_t now_s = world.scheduler().now() / sim::kUsPerSecond;
    const std::uint64_t horizon_s =
        now_s + (spec_.traffic_epochs + 2) * spec_.epoch_seconds + drain_seconds;
    for (std::uint64_t t = now_s + 1; t <= horizon_s; t += spec_.epoch_seconds) {
      world.scheduler().schedule_at(
          t * sim::kUsPerSecond, [&world, &nullifier_max, &mem_peaks] {
            // Shared world state (router params + topic table, nullifier
            // record arena) is charged once; the loop adds the per-node
            // views on top.
            std::size_t routers = world.router_shared_bytes();
            std::size_t mcaches = 0;
            std::size_t nullifiers = world.validator_context()->memory_bytes();
            for (std::size_t i = 0; i < world.size(); ++i) {
              const std::size_t nb = world.node(i).nullifier_map_bytes();
              nullifier_max = std::max(nullifier_max, nb);
              nullifiers += nb;
              routers += world.relay(i).router().memory_bytes();
              mcaches += world.relay(i).router().mcache().memory_bytes();
            }
            mem_peaks.router = std::max(mem_peaks.router, routers);
            mem_peaks.mcache = std::max(mem_peaks.mcache, mcaches);
            mem_peaks.nullifier = std::max(mem_peaks.nullifier, nullifiers);
            mem_peaks.merkle =
                std::max(mem_peaks.merkle, world.group_sync().memory_bytes());
            mem_peaks.event_pool =
                std::max(mem_peaks.event_pool, world.scheduler().memory_bytes());
            mem_peaks.network =
                std::max(mem_peaks.network, world.network().memory_bytes());
          });
    }
  }

  // Per-epoch time series: one row at every protocol epoch boundary from
  // the traffic start through the drain (the registration order of the
  // probes above is the column order of TIMESERIES_<scenario>.json).
  sim::TimerHandle sample_timer;
  if (reg.enabled()) {
    sim::Scheduler& sched = world.scheduler();
    const sim::TimeUs period = spec_.epoch_seconds * sim::kUsPerSecond;
    sample_timer = sched.schedule_periodic(
        traffic_start_us(spec_, sched) - sched.now(), period, [this, &reg, &world] {
          series_.sample(reg, static_cast<double>(world.scheduler().now()) /
                                  static_cast<double>(sim::kUsPerSecond));
        });
  }

  SteadyProbe probe;
  arm_steady_probe(world.scheduler(), spec_.epoch_seconds, probe);

  drive_traffic(spec_, seed_, world.scheduler(), world.network(), honest, spam,
                drain_seconds, log);

  capture_scheduler_stats(world.scheduler(), probe, resource_);
  fill_memory_resources(mem_peaks, resource_);
  if (tracer) trace_json_ = tracer->json();

  std::vector<Delivered> deliveries;
  deliveries.reserve(world.deliveries().size());
  for (const auto& d : world.deliveries()) {
    deliveries.push_back({d.node_index, key_of(d.payload), d.at});
  }

  MetricSet m;
  m.set("nodes", static_cast<double>(spec_.nodes));
  fill_delivery_metrics(m, spec_, log, deliveries);
  fill_over_rate_metrics(m, spec_, log, [&](std::size_t i) {
    return !world.contract().is_active(world.node(i).identity().pk);
  });

  const auto stats = world.aggregate_stats();
  m.set("rln_accepted", static_cast<double>(stats.accepted));
  m.set("rln_duplicates", static_cast<double>(stats.duplicates));
  m.set("rln_double_signals", static_cast<double>(stats.double_signals));
  m.set("rln_slashes_submitted", static_cast<double>(stats.slashes_submitted));
  m.set("nullifier_map_max_bytes", static_cast<double>(nullifier_max));
  m.set("stake_burnt_wei", static_cast<double>(world.chain().ledger().burnt_total()));

  if (spec_.adversaries.adaptive_spammers > 0) {
    m.set("adaptive_probes_attempted",
          static_cast<double>(log.adaptive_probes_attempted));
    m.set("adaptive_probes_published",
          static_cast<double>(log.adaptive_probes_published));
  }
  if (spec_.storm.stormers > 0) {
    m.set("storm_waves", static_cast<double>(storm_log.waves));
    m.set("storm_join_requests", static_cast<double>(storm_log.join_requests));
    m.set("storm_double_signal_publishes",
          static_cast<double>(storm_log.double_signal_publishes));
  }

  // Membership-sync churn over the whole run: initial registrations plus
  // whatever the storm (joins and the resulting slashes) added.
  const waku::GroupSync::Stats& gs = world.group_sync().stats();
  m.set("group_registrations", static_cast<double>(gs.registrations_applied));
  m.set("group_slashes", static_cast<double>(gs.slashes_applied));
  resource_.group_sync_bytes = static_cast<double>(gs.sync_bytes);
  resource_.group_root_updates = static_cast<double>(gs.root_updates);

  fill_network_metrics(m, spec_, world.network().stats());
  fill_anonymity_metrics(m, spec_, log, spy);

  // Resource metrics (all deterministic): zkSNARK verification work and
  // saved repeats, payload-buffer allocations, router byte classes.
  m.set("verifications_total", static_cast<double>(stats.proof_verifications));
  m.set("verifications_saved", static_cast<double>(stats.proof_cache_hits));
  if (replay.enabled()) {
    m.set("replay_ids_recorded", static_cast<double>(replay.ids_recorded()));
    m.set("replay_ihaves_sent", static_cast<double>(replay.ihaves_sent()));
    m.set("replay_messages_served", static_cast<double>(replay.messages_served()));
  }
  std::uint64_t payload_wire = 0;
  std::uint64_t control_wire = 0;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto& rs = world.relay(i).router().stats();
    payload_wire += rs.payload_bytes_sent;
    control_wire += rs.control_bytes_sent;
  }
  m.set("payload_bytes_total", static_cast<double>(payload_wire));
  m.set("control_bytes_total", static_cast<double>(control_wire));
  m.set("control_overhead_ratio",
        payload_wire + control_wire == 0
            ? 0
            : static_cast<double>(control_wire) /
                  static_cast<double>(payload_wire + control_wire));
  m.set("payload_allocs",
        static_cast<double>(util::SharedBytes::allocation_count() - payload_allocs0));
  m.set("payload_alloc_bytes",
        static_cast<double>(util::SharedBytes::allocated_bytes() - payload_bytes0));
  m.set("sim_seconds", static_cast<double>(world.scheduler().now()) /
                           static_cast<double>(sim::kUsPerSecond));
  return m;
}

MetricSet ScenarioRunner::run_pow() {
  util::Rng rng(seed_);
  sim::Scheduler sched(spec_.world_threads, spec_.nodes);
  sim::Network net(sched, rng, spec_.link);

  gossipsub::GossipSubParams gossip;
  if (spec_.seen_ttl_seconds > 0) {
    gossip.seen_ttl = spec_.seen_ttl_seconds * sim::kUsPerSecond;
  }
  // Shared router state for the PoW world too: one parameter block and
  // one interned topic table for all nodes.
  const auto gossip_shared =
      std::make_shared<const gossipsub::GossipSubParams>(gossip);
  const auto topic_table = std::make_shared<gossipsub::TopicTable>();
  std::vector<sim::NodeId> ids;
  std::vector<std::unique_ptr<waku::WakuRelay>> relays;
  ids.reserve(spec_.nodes);
  relays.reserve(spec_.nodes);
  for (std::size_t i = 0; i < spec_.nodes; ++i) {
    ids.push_back(net.add_node({}));
    relays.push_back(std::make_unique<waku::WakuRelay>(ids.back(), net,
                                                       gossip_shared, topic_table));
  }
  sim::DegreeBias bias;
  if (spec_.observer.placement == ObserverPlacement::kSybilHighDegree) {
    for (std::size_t o = first_observer(spec_); o < spec_.nodes; ++o) {
      bias.nodes.push_back(ids[o]);
    }
    bias.extra_links = spec_.observer.sybil_extra_links;
  }
  sim::build_topology(net, ids, spec_.topology, spec_.extra_links_per_node,
                      spec_.erdos_renyi_p, rng, bias);
  if (spec_.link_profile == sim::LinkProfile::kGeo) {
    sim::apply_geo_latency(net, ids, spec_.link);
  }
  apply_observer_placement(spec_, net);
  for (auto& r : relays) r->start();

  obs::Registry reg(spec_.observability);
  std::optional<obs::Tracer> tracer;
  if (spec_.trace) tracer.emplace(spec_.trace_capacity);
  obs::Tracer* const tr = tracer ? &*tracer : nullptr;
  for (auto& r : relays) r->router().set_tracer(tr);
  net.instrument(reg);

  const std::uint64_t payload_allocs0 = util::SharedBytes::allocation_count();
  const std::uint64_t payload_bytes0 = util::SharedBytes::allocated_bytes();

  const std::vector<std::string> topics = topic_names(spec_);
  const auto decode = [](const util::SharedBytes& data) -> std::optional<std::string> {
    const auto env = baselines::PowEnvelope::deserialize(data);
    if (!env) return std::nullopt;
    return key_of(env->payload);
  };

  // Deliveries execute on the receiving node's shard lane, so — exactly
  // like waku::SimHarness — each lane records into its own stamped log and
  // the logs are merged into serial event order after the run.
  std::vector<std::vector<std::pair<sim::Scheduler::Stamp, Delivered>>>
      lane_deliveries(sched.lane_count());
  std::vector<Delivered> deliveries;
  for (std::size_t i = 0; i < spec_.nodes; ++i) {
    for (const std::string& topic : topics) {
      relays[i]->router().set_validator(
          topic, baselines::make_pow_validator(spec_.pow_difficulty_bits));
      relays[i]->subscribe(topic, [&lane_deliveries, &sched, &decode, tr, i](
                                      const gossipsub::TopicId&,
                                      const util::SharedBytes& data) {
        const auto key = decode(data);
        if (key) {
          lane_deliveries[sched.current_lane()].emplace_back(
              sched.current_stamp(), Delivered{i, *key, sched.now()});
          if (tr != nullptr) {
            tr->instant("deliver", sched.now(), static_cast<std::uint32_t>(i));
          }
        }
      });
    }
  }

  // The PoW world has no harness, so the pull probes are registered here
  // (same fixed-order rule; no membership or nullifier state to report).
  if (reg.enabled()) {
    reg.probe("delivered_total", [&lane_deliveries] {
      // Sampled from global events (shards quiesced); the count is a sum
      // over the lane logs, so it is lane-partition invariant.
      std::size_t total = 0;
      for (const auto& lane : lane_deliveries) total += lane.size();
      return static_cast<double>(total);
    });
    reg.probe("scheduler_queue",
              [&sched] { return static_cast<double>(sched.pending()); });
    reg.probe("scheduler_queue_peak", [&sched] {
      return static_cast<double>(sched.stats().peak_pending);
    });
    reg.probe("mem_router_bytes", [&relays, topic_table] {
      std::size_t total =
          sizeof(gossipsub::GossipSubParams) + topic_table->memory_bytes();
      for (const auto& r : relays) total += r->router().memory_bytes();
      return static_cast<double>(total);
    });
    reg.probe("mem_mcache_bytes", [&relays] {
      std::size_t total = 0;
      for (const auto& r : relays) total += r->router().mcache().memory_bytes();
      return static_cast<double>(total);
    });
    reg.probe("mem_event_pool_bytes",
              [&sched] { return static_cast<double>(sched.memory_bytes()); });
    reg.probe("mem_network_bytes",
              [&net] { return static_cast<double>(net.memory_bytes()); });
    reg.probe("net_frames_sent", [&net] {
      return static_cast<double>(net.stats().frames_sent);
    });
    reg.probe("net_bytes_sent",
              [&net] { return static_cast<double>(net.stats().bytes_sent); });
  }
  TrafficLog log;
  register_workload_probes(reg, log);
  sched.run_for(5 * sim::kUsPerSecond);  // mesh warm-up

  FirstSpyObserver spy(spec_, sched, decode);
  install_frame_tap(net, spy, /*replay=*/nullptr);

  // Under PoW everyone — honest phone or spam rig — pays the same hash
  // price and there is no rate to enforce: the spam path is just publish.
  const PublishFn publish = [&](std::size_t node, std::size_t topic,
                                const std::string& key) {
    const auto env =
        baselines::pow_seal(padded_payload(spec_, key), spec_.pow_difficulty_bits);
    relays[node]->publish(topics[topic], env.serialize());
    if (tr != nullptr) {
      tr->instant("publish", sched.now(), static_cast<std::uint32_t>(node), key);
    }
    return true;
  };

  // Per-epoch memory sampling (always on — the peaks land in the
  // resources block) and, with observability enabled, the time series.
  constexpr std::uint64_t kPowDrainSeconds = 10;
  MemoryPeaks mem_peaks;
  {
    const std::uint64_t now_s = sched.now() / sim::kUsPerSecond;
    const std::uint64_t horizon_s =
        now_s + (spec_.traffic_epochs + 2) * spec_.epoch_seconds + kPowDrainSeconds;
    for (std::uint64_t t = now_s + 1; t <= horizon_s; t += spec_.epoch_seconds) {
      sched.schedule_at(t * sim::kUsPerSecond,
                        [&relays, &sched, &net, &mem_peaks, topic_table] {
        std::size_t routers =
            sizeof(gossipsub::GossipSubParams) + topic_table->memory_bytes();
        std::size_t mcaches = 0;
        for (const auto& r : relays) {
          routers += r->router().memory_bytes();
          mcaches += r->router().mcache().memory_bytes();
        }
        mem_peaks.router = std::max(mem_peaks.router, routers);
        mem_peaks.mcache = std::max(mem_peaks.mcache, mcaches);
        mem_peaks.event_pool = std::max(mem_peaks.event_pool, sched.memory_bytes());
        mem_peaks.network = std::max(mem_peaks.network, net.memory_bytes());
      });
    }
  }
  sim::TimerHandle sample_timer;
  if (reg.enabled()) {
    const sim::TimeUs period = spec_.epoch_seconds * sim::kUsPerSecond;
    sample_timer = sched.schedule_periodic(
        traffic_start_us(spec_, sched) - sched.now(), period, [this, &reg, &sched] {
          series_.sample(reg, static_cast<double>(sched.now()) /
                                  static_cast<double>(sim::kUsPerSecond));
        });
  }

  SteadyProbe probe;
  arm_steady_probe(sched, spec_.epoch_seconds, probe);

  drive_traffic(spec_, seed_, sched, net, publish, publish, kPowDrainSeconds, log);

  capture_scheduler_stats(sched, probe, resource_);
  fill_memory_resources(mem_peaks, resource_);
  if (tracer) trace_json_ = tracer->json();

  // Merge the per-lane delivery logs into the order the serial engine
  // would have produced.
  {
    std::vector<std::pair<sim::Scheduler::Stamp, Delivered>> stamped;
    std::size_t total = 0;
    for (const auto& lane : lane_deliveries) total += lane.size();
    stamped.reserve(total);
    for (auto& lane : lane_deliveries) {
      for (auto& entry : lane) stamped.push_back(std::move(entry));
      lane.clear();
    }
    std::stable_sort(
        stamped.begin(), stamped.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    deliveries.reserve(stamped.size());
    for (auto& entry : stamped) deliveries.push_back(std::move(entry.second));
  }

  MetricSet m;
  m.set("nodes", static_cast<double>(spec_.nodes));
  fill_delivery_metrics(m, spec_, log, deliveries);
  fill_over_rate_metrics(m, spec_, log, [](std::size_t) { return false; });
  m.set("pow_difficulty_bits", static_cast<double>(spec_.pow_difficulty_bits));
  m.set("pow_expected_hashes_per_msg",
        baselines::expected_hashes(spec_.pow_difficulty_bits));
  fill_network_metrics(m, spec_, net.stats());
  fill_anonymity_metrics(m, spec_, log, spy);

  std::uint64_t payload_wire = 0;
  std::uint64_t control_wire = 0;
  for (const auto& r : relays) {
    const auto& rs = r->router().stats();
    payload_wire += rs.payload_bytes_sent;
    control_wire += rs.control_bytes_sent;
  }
  m.set("payload_bytes_total", static_cast<double>(payload_wire));
  m.set("control_bytes_total", static_cast<double>(control_wire));
  m.set("control_overhead_ratio",
        payload_wire + control_wire == 0
            ? 0
            : static_cast<double>(control_wire) /
                  static_cast<double>(payload_wire + control_wire));
  m.set("payload_allocs",
        static_cast<double>(util::SharedBytes::allocation_count() - payload_allocs0));
  m.set("payload_alloc_bytes",
        static_cast<double>(util::SharedBytes::allocated_bytes() - payload_bytes0));
  m.set("sim_seconds", static_cast<double>(sched.now()) /
                           static_cast<double>(sim::kUsPerSecond));
  return m;
}

}  // namespace wakurln::scenario
