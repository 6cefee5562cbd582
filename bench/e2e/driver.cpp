// End-to-end benchmark driver. Builds one benchmark world through
// waku::SimHarness, drives it only through public functions, times the
// calls it makes into each layer and prints one JSON object of raw
// measurements on stdout. bench/e2e/run.py builds this program and runs
// it once per (workload, repetition); bench/e2e/metrics.py derives every
// metric from that object, so all statistics live in one tested place.
//
//   e2e_driver --workload relay_mesh --seed 1 --epochs 4
//              [--trace 0|1] [--trace-out PATH]
//
// --trace 1 puts a timing sim::DeliverySink between the scheduler and
// sim::Network (per-frame dispatch time per lane), samples the modeled
// memory ledger once per epoch and writes wall-clock spans in Chrome
// trace-event format to --trace-out. The spans measure host time, so the
// file is outside the deterministic TRACE_ contract of the scenario
// reports. A traced run also carries an untraced twin: a second world
// with the same seed whose traffic runs segment by segment alternately
// with the traced one, so the cost of tracing is measured in one process.
// Untraced runs give the end-to-end numbers.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "waku/harness.h"

namespace {

using namespace wakurln;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. Node layout: [honest publishers][spammers][storm band][relays].

struct Workload {
  const char* name = "";
  std::size_t nodes = 0;
  std::size_t extra_links = 0;  ///< random chords on top of the ring
  bool geo = false;             ///< region-derived link latency
  unsigned world_threads = 1;
  std::uint64_t rate = 1;       ///< RLN messages per member per epoch (k); honest
                                ///< publishers send exactly this many
  std::size_t publishers = 0;   ///< registered honest members
  double publish_prob = 1.0;    ///< chance a publisher sends in a given epoch
  std::size_t spammers = 0;     ///< registered members publishing over-rate
  std::uint64_t spam_per_epoch = 0;
  std::size_t stormers = 0;     ///< unregistered band joining mid-run
  std::size_t joins_per_epoch = 0;
  std::size_t root_window = 0;  ///< acceptable-root window; 0 = library default
};

// Why each workload exists is recorded in bench/e2e/README.md.
constexpr Workload kWorkloads[] = {
    {.name = "relay_mesh", .nodes = 5000, .extra_links = 4, .geo = true,
     .publishers = 64},
    {.name = "relay_mesh_sharded", .nodes = 5000, .extra_links = 4, .geo = true,
     .world_threads = 2, .publishers = 64},
    {.name = "publish_dense", .nodes = 64, .extra_links = 3, .rate = 3,
     .publishers = 64},
    {.name = "churn_spam", .nodes = 512, .extra_links = 3, .publishers = 312,
     .publish_prob = 0.5, .spammers = 4, .spam_per_epoch = 5, .stormers = 192,
     .joins_per_epoch = 24, .root_window = 64},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

constexpr std::uint64_t kEpochSeconds = 10;
constexpr std::size_t kPayloadBytes = 256;
constexpr std::uint64_t kWarmupSeconds = 5;
// Set-ups per run, so setup_s can be reported as a median.
constexpr std::size_t kSetupReps = 7;

// ---------------------------------------------------------------------------
// Inputs, generated from the seed before the world exists.

enum class Kind : std::uint8_t { kHonest = 'h', kSpam = 's', kStorm = 'g' };

struct Publication {
  sim::TimeUs offset = 0;  ///< from the first traffic epoch boundary
  std::size_t node = 0;
  std::size_t msg = 0;  ///< index into Plan::payloads
};

struct Plan {
  std::vector<Publication> pubs;   ///< honest and spam, epoch-major
  std::vector<util::Bytes> payloads;
  std::size_t honest_messages = 0;
};

/// Payload layout: [kind][message index, 8 bytes LE][seeded filler].
util::Bytes make_payload(Kind kind, std::size_t msg, util::Rng& fill) {
  util::Bytes out(kPayloadBytes);
  out[0] = static_cast<std::uint8_t>(kind);
  for (std::size_t b = 0; b < 8; ++b) {
    out[1 + b] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(msg) >> (8 * b));
  }
  fill.fill(std::span<std::uint8_t>(out).subspan(9));
  return out;
}

Kind kind_of(std::span<const std::uint8_t> payload) {
  return static_cast<Kind>(payload[0]);
}

std::size_t msg_of(std::span<const std::uint8_t> payload) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(payload[1 + b]) << (8 * b);
  return static_cast<std::size_t>(v);
}

/// Publish offsets are T/4 + U(0, T/4) into each epoch, as the scenario
/// runner's drive_traffic draws them, so a message and its proof share
/// the epoch they were drawn for; a publisher's j-th message of an epoch
/// follows j ms later. Storm payloads are appended after the traffic.
Plan make_plan(const Workload& w, std::uint64_t seed, std::uint64_t epochs) {
  util::Rng timing(seed ^ 0x6532652d74696d65ULL);
  util::Rng fill(seed ^ 0x6532652d66696c6cULL);
  const sim::TimeUs t_us = kEpochSeconds * sim::kUsPerSecond;
  Plan plan;
  auto add = [&](Kind kind, std::size_t node, sim::TimeUs at) {
    plan.pubs.push_back({at, node, plan.payloads.size()});
    plan.payloads.push_back(make_payload(kind, plan.payloads.size(), fill));
  };
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (std::size_t i = 0; i < w.publishers + w.spammers; ++i) {
      const bool honest = i < w.publishers;
      // Two draws per publisher and epoch, whether or not it sends, so
      // the offsets do not depend on the workload's publish_prob.
      const bool sends = timing.unit() < (honest ? w.publish_prob : 1.0);
      const sim::TimeUs off = e * t_us + t_us / 4 + timing.uniform(0, t_us / 4);
      if (!sends) continue;
      const std::uint64_t count = honest ? w.rate : w.spam_per_epoch;
      for (std::uint64_t j = 0; j < count; ++j) {
        add(honest ? Kind::kHonest : Kind::kSpam, i, off + j * sim::kUsPerMs);
        if (honest) ++plan.honest_messages;
      }
    }
  }
  for (std::size_t s = 0; s < w.stormers; ++s) {
    for (std::size_t j = 0; j < 2; ++j) {
      plan.payloads.push_back(make_payload(Kind::kStorm, plan.payloads.size(), fill));
    }
  }
  return plan;
}

/// Members the network must slash: the spammers and every storm node that
/// joins (and then double-signals) within the run.
std::vector<std::size_t> violators_of(const Workload& w, std::uint64_t epochs) {
  std::vector<std::size_t> out;
  for (std::size_t i = w.publishers; i < w.publishers + w.spammers; ++i) out.push_back(i);
  const std::size_t joined = std::min<std::size_t>(w.stormers, epochs * w.joins_per_epoch);
  for (std::size_t s = 0; s < joined; ++s) out.push_back(w.publishers + w.spammers + s);
  return out;
}

// ---------------------------------------------------------------------------
// Wall-clock spans, kept in memory and written once at exit.

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  void span(const std::string& name, Clock::time_point begin, Clock::time_point end,
            const std::string& args = "{}") {
    events_.push_back("{\"name\":\"" + util::json_escape(name) +
                      "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" + us(begin) +
                      ",\"dur\":" + util::json_number(seconds_between(begin, end) * 1e6) +
                      ",\"args\":" + args + "}");
  }

  void counter(const std::string& name, Clock::time_point at, const std::string& args) {
    events_.push_back("{\"name\":\"" + util::json_escape(name) +
                      "\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":" + us(at) +
                      ",\"args\":" + args + "}");
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out.flush()) throw std::runtime_error("failed writing trace file " + path);
  }

 private:
  std::string us(Clock::time_point t) const {
    return util::json_number(seconds_between(origin_, t) * 1e6);
  }

  Clock::time_point origin_;
  std::vector<std::string> events_;
};

// ---------------------------------------------------------------------------
// Frame-dispatch timing from outside the program: a DeliverySink that the
// scheduler calls instead of the network, forwarding every frame.

/// Log-linear histogram bucket of a duration in ns: values below 8 map to
/// themselves; above, each octave [2^m, 2^(m+1)) splits into 4 equal
/// buckets, index 4m + (ns >> (m-2) & 3). metrics.py inverts the mapping.
std::size_t ns_bucket(std::uint64_t ns) {
  if (ns < 8) return static_cast<std::size_t>(ns);
  const unsigned m = 63u - static_cast<unsigned>(__builtin_clzll(ns));
  return 4 * m + static_cast<std::size_t>((ns >> (m - 2)) & 3u);
}
constexpr std::size_t kBuckets = 4 * 64;

class TimingSink final : public sim::DeliverySink {
 public:
  struct alignas(64) Lane {
    std::uint64_t busy_ns = 0;
    std::uint64_t frames = 0;
    std::array<std::uint64_t, kBuckets> hist{};
  };

  TimingSink(sim::Scheduler& sched, sim::Network& net)
      : sched_(sched), net_(net), lanes_(sched.lane_count()) {
    sched_.clear_delivery_sink(&net_);
    sched_.set_delivery_sink(this);
  }
  ~TimingSink() {
    sched_.clear_delivery_sink(this);
    sched_.set_delivery_sink(&net_);
  }
  TimingSink(const TimingSink&) = delete;
  TimingSink& operator=(const TimingSink&) = delete;

  void on_delivery(const sim::DeliveryEvent& ev) override {
    Lane& lane = lanes_[sched_.current_lane()];
    const auto t0 = Clock::now();
    static_cast<sim::DeliverySink&>(net_).on_delivery(ev);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    lane.busy_ns += ns;
    ++lane.frames;
    ++lane.hist[ns_bucket(ns)];
  }

  /// Read only between scheduler runs (all shard work has joined).
  const std::vector<Lane>& lanes() const { return lanes_; }

 private:
  sim::Scheduler& sched_;
  sim::Network& net_;
  std::vector<Lane> lanes_;
};

// ---------------------------------------------------------------------------
// JSON emission.

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, util::json_number(v));
  }
  JsonObject& text(const std::string& key, const std::string& v) {
    return raw(key, "\"" + util::json_escape(v) + "\"");
  }
  JsonObject& list(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) s += ',';
      s += util::json_number(vs[i]);
    }
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += util::json_escape(key);
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Set-up: construction, subscription, registration and mesh warm-up.

struct SetupTimes {
  double build = 0, subscribe = 0, reg = 0, warmup = 0, total = 0;
};

waku::HarnessConfig harness_config(const Workload& w, std::uint64_t seed) {
  waku::HarnessConfig cfg = waku::HarnessConfig::defaults();
  cfg.node_count = w.nodes;
  cfg.world_threads = w.world_threads;
  cfg.seed = seed;
  cfg.extra_links_per_node = w.extra_links;
  if (w.geo) cfg.link_profile = sim::LinkProfile::kGeo;
  cfg.rln.epoch_period_seconds = kEpochSeconds;
  cfg.rln.messages_per_epoch = w.rate;
  if (w.root_window > 0) cfg.rln.acceptable_root_window = w.root_window;
  return cfg;
}

std::unique_ptr<waku::SimHarness> set_up(const Workload& w, const waku::HarnessConfig& cfg,
                                         const std::string& topic, SetupTimes& times,
                                         Trace* trace, std::size_t rep) {
  const auto t0 = Clock::now();
  auto world = std::make_unique<waku::SimHarness>(cfg);
  const auto t1 = Clock::now();
  world->subscribe_all(topic);
  const auto t2 = Clock::now();
  std::vector<std::size_t> members(w.publishers + w.spammers);
  for (std::size_t i = 0; i < members.size(); ++i) members[i] = i;
  world->register_nodes(members);
  const auto t3 = Clock::now();
  world->run_seconds(kWarmupSeconds);
  const auto t4 = Clock::now();
  times = {seconds_between(t0, t1), seconds_between(t1, t2), seconds_between(t2, t3),
           seconds_between(t3, t4), seconds_between(t0, t4)};
  if (trace != nullptr) {
    const std::string args = "{\"rep\":" + std::to_string(rep) + "}";
    trace->span("setup.build", t0, t1, args);
    trace->span("setup.subscribe", t1, t2, args);
    trace->span("setup.register", t2, t3, args);
    trace->span("setup.warmup", t3, t4, args);
  }
  return world;
}

// ---------------------------------------------------------------------------
// Traffic: the timeline, one world carrying the plan, and what it measured.

/// Segment ends of the traffic phase: the wait for the first epoch
/// boundary, one segment per epoch and the catalogue drain.
struct Timeline {
  sim::TimeUs start_us = 0;
  std::vector<sim::TimeUs> seg_end;

  /// run_until(t) runs events stamped <= t, so t belongs to the first
  /// segment whose end is >= t.
  std::size_t segment_of(sim::TimeUs t) const {
    const auto it = std::lower_bound(seg_end.begin(), seg_end.end(), t);
    return std::min(static_cast<std::size_t>(it - seg_end.begin()), seg_end.size() - 1);
  }

  std::string segment_name(std::size_t i) const {
    if (i == 0) return "traffic.gap";
    if (i + 1 < seg_end.size()) return "traffic.epoch" + std::to_string(i - 1);
    return "traffic.drain";
  }
};

Timeline make_timeline(waku::SimHarness& world, const waku::HarnessConfig& cfg,
                       std::uint64_t epochs) {
  const sim::TimeUs t_us = kEpochSeconds * sim::kUsPerSecond;
  const std::uint64_t warm_s = world.scheduler().now() / sim::kUsPerSecond;
  const std::uint64_t block_s = world.chain().config().block_time_seconds;
  const std::uint64_t drain_s = cfg.rln.max_delay_seconds + 2 * block_s + 5;
  Timeline tl;
  tl.start_us = (warm_s / kEpochSeconds + 1) * t_us;
  tl.seg_end.push_back(tl.start_us);
  for (std::uint64_t e = 1; e <= epochs; ++e) tl.seg_end.push_back(tl.start_us + e * t_us);
  tl.seg_end.push_back(tl.seg_end.back() + drain_s * sim::kUsPerSecond);
  return tl;
}

struct TrafficRun {
  std::unique_ptr<waku::SimHarness> world;
  Trace* trace = nullptr;  ///< publish and segment spans; null when untraced
  std::vector<double> publish_ms;  ///< calls that published
  double publish_busy_s = 0;
  std::uint64_t publish_calls = 0;
  std::uint64_t honest_unpublished = 0;
  std::vector<std::size_t> origin;  ///< publisher of each honest message
  std::vector<char> honest_published;
  std::vector<double> seg_wall, seg_sim;
};

bool timed_publish(TrafficRun& r, const Plan& plan, const std::string& topic, std::size_t node,
                   std::size_t msg, bool checked) {
  const util::Bytes& payload = plan.payloads[msg];
  waku::WakuRlnRelay& relay = r.world->node(node);
  const auto t0 = Clock::now();
  const auto outcome =
      checked ? relay.publish(topic, payload) : relay.publish_unchecked(topic, payload);
  const auto t1 = Clock::now();
  const double s = seconds_between(t0, t1);
  r.publish_busy_s += s;
  ++r.publish_calls;
  const bool ok = outcome == waku::WakuRlnRelay::PublishOutcome::kPublished;
  if (ok) r.publish_ms.push_back(s * 1e3);
  if (r.trace != nullptr) {
    r.trace->span("publish", t0, t1,
                  "{\"msg\":" + std::to_string(msg) + ",\"node\":" + std::to_string(node) +
                      ",\"published\":" + (ok ? "true" : "false") + "}");
  }
  return ok;
}

/// Schedules the plan on r's world. Every publish is a global event due on
/// the simulated clock regardless of host speed (open loop in simulated
/// time). r, plan and topic must outlive the world's run.
void schedule_traffic(TrafficRun& r, const Workload& w, const Plan& plan, const Timeline& tl,
                      const std::string& topic, std::uint64_t epochs) {
  r.origin.assign(plan.payloads.size(), 0);
  r.honest_published.assign(plan.payloads.size(), 0);
  sim::Scheduler& sched = r.world->scheduler();
  for (const Publication& p : plan.pubs) {
    sched.schedule_at(tl.start_us + p.offset, [&r, &plan, &topic, p] {
      const bool honest = kind_of(plan.payloads[p.msg]) == Kind::kHonest;
      const bool ok = timed_publish(r, plan, topic, p.node, p.msg, honest);
      if (!honest) return;
      r.origin[p.msg] = p.node;
      r.honest_published[p.msg] = ok ? 1 : 0;
      if (!ok) ++r.honest_unpublished;
    });
  }

  // Registration storm: one wave per epoch boundary. Once a join has
  // certainly confirmed (the next block has passed), the new member
  // publishes twice in one slot, a double signal the network slashes.
  const std::size_t storm_first = w.publishers + w.spammers;
  const std::size_t storm_payload0 = plan.payloads.size() - 2 * w.stormers;
  const std::uint64_t block_s = r.world->chain().config().block_time_seconds;
  const sim::TimeUs confirm_us = (block_s + 2) * sim::kUsPerSecond;
  const sim::TimeUs t_us = kEpochSeconds * sim::kUsPerSecond;
  for (std::uint64_t e = 0; e < epochs && w.joins_per_epoch > 0; ++e) {
    for (std::size_t j = 0; j < w.joins_per_epoch; ++j) {
      const std::size_t s = e * w.joins_per_epoch + j;
      if (s >= w.stormers) break;
      const std::size_t node = storm_first + s;
      sched.schedule_at(tl.start_us + e * t_us,
                        [&r, node] { r.world->node(node).request_registration(); });
      sched.schedule_at(tl.start_us + e * t_us + confirm_us,
                        [&r, &plan, &topic, node, s, storm_payload0] {
                          timed_publish(r, plan, topic, node, storm_payload0 + 2 * s, false);
                          timed_publish(r, plan, topic, node, storm_payload0 + 2 * s + 1, false);
                        });
    }
  }
}

/// Runs traffic segment i. Wall time counts only the scheduler run.
void run_segment(TrafficRun& r, const Timeline& tl, std::size_t i) {
  sim::Scheduler& sched = r.world->scheduler();
  const sim::TimeUs from = sched.now();
  const auto t0 = Clock::now();
  sched.run_until(tl.seg_end[i]);
  const auto t1 = Clock::now();
  r.seg_wall.push_back(seconds_between(t0, t1));
  r.seg_sim.push_back(static_cast<double>(tl.seg_end[i] - from) /
                      static_cast<double>(sim::kUsPerSecond));
  if (r.trace != nullptr) r.trace->span(tl.segment_name(i), t0, t1);
}

// ---------------------------------------------------------------------------
// Modeled memory ledger, sampled between epochs through memory_bytes().

struct MemoryPeaks {
  double router = 0, mcache = 0, nullifier = 0, merkle = 0, event_pool = 0, network = 0;

  void sample(waku::SimHarness& world) {
    std::size_t routers = world.router_shared_bytes();
    std::size_t mcaches = 0;
    std::size_t nullifiers = world.validator_context()->memory_bytes();
    for (std::size_t i = 0; i < world.size(); ++i) {
      routers += world.relay(i).router().memory_bytes();
      mcaches += world.relay(i).router().mcache().memory_bytes();
      nullifiers += world.node(i).nullifier_map_bytes();
    }
    router = std::max(router, static_cast<double>(routers));
    mcache = std::max(mcache, static_cast<double>(mcaches));
    nullifier = std::max(nullifier, static_cast<double>(nullifiers));
    merkle = std::max(merkle, static_cast<double>(world.group_sync().memory_bytes()));
    event_pool = std::max(event_pool, static_cast<double>(world.scheduler().memory_bytes()));
    network = std::max(network, static_cast<double>(world.network().memory_bytes()));
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Collection and correctness checks.

struct Outcome {
  JsonObject counters, checks;
  std::vector<double> seg_deliveries;
};

Outcome collect(const TrafficRun& r, const Workload& w, const Plan& plan, const Timeline& tl,
                const std::vector<std::size_t>& violators) {
  waku::SimHarness& world = *r.world;
  Outcome o;
  std::vector<char> got(plan.payloads.size() * w.nodes, 0);
  std::uint64_t honest_deliveries = 0;
  o.seg_deliveries.assign(tl.seg_end.size(), 0);
  for (const waku::SimHarness::Delivery& d : world.deliveries()) {
    if (d.payload.size() != kPayloadBytes || kind_of(d.payload) != Kind::kHonest) continue;
    const std::size_t msg = msg_of(d.payload);
    if (msg >= plan.payloads.size() || d.node_index == r.origin[msg]) continue;
    char& seen = got[msg * w.nodes + d.node_index];
    if (seen == 0) {
      ++honest_deliveries;
      ++o.seg_deliveries[tl.segment_of(d.at)];
    }
    seen = 1;
  }
  // Unpublished honest messages are counted once as failed publishes; the
  // deliveries they would have had are not attempted.
  std::uint64_t expected_deliveries = 0;
  for (std::size_t m = 0; m < plan.payloads.size(); ++m) {
    if (r.honest_published[m]) expected_deliveries += w.nodes - 1;
  }
  std::uint64_t violators_active = 0;
  for (const std::size_t i : violators) {
    if (world.contract().is_active(world.node(i).identity().pk)) ++violators_active;
  }
  std::uint64_t honest_inactive = 0;
  for (std::size_t i = 0; i < w.publishers; ++i) {
    if (!world.contract().is_active(world.node(i).identity().pk)) ++honest_inactive;
  }

  const auto stats = world.aggregate_stats();
  const auto sst = world.scheduler().stats();
  const auto net = world.network().stats();
  const auto& gs = world.group_sync().stats();
  o.counters.num("events_executed", static_cast<double>(sst.executed))
      .num("timer_fires", static_cast<double>(sst.timer_fires))
      .num("peak_pending", static_cast<double>(sst.peak_pending))
      .num("frames_delivered", static_cast<double>(net.frames_delivered))
      .num("bytes_sent", static_cast<double>(net.bytes_sent))
      .num("honest_messages", static_cast<double>(plan.honest_messages))
      .num("honest_deliveries", static_cast<double>(honest_deliveries))
      .num("publish_calls", static_cast<double>(r.publish_calls))
      .num("published", static_cast<double>(stats.published))
      .num("accepted", static_cast<double>(stats.accepted))
      .num("proof_verifications", static_cast<double>(stats.proof_verifications))
      .num("proof_cache_hits", static_cast<double>(stats.proof_cache_hits))
      .num("double_signals", static_cast<double>(stats.double_signals))
      .num("slashes_submitted", static_cast<double>(stats.slashes_submitted))
      .num("rln_dropped",
           static_cast<double>(stats.invalid_envelope + stats.invalid_epoch +
                               stats.invalid_slot + stats.unknown_root + stats.invalid_proof))
      .num("registrations", static_cast<double>(gs.registrations_applied))
      .num("slashes", static_cast<double>(gs.slashes_applied))
      .num("root_updates", static_cast<double>(gs.root_updates))
      .num("sync_bytes", static_cast<double>(gs.sync_bytes))
      .num("blocks", static_cast<double>(world.chain().height()))
      .num("violators", static_cast<double>(violators.size()));
  gossipsub::GossipSubRouter::Stats sum;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto& rs = world.relay(i).router().stats();
    sum.delivered += rs.delivered;
    sum.duplicates += rs.duplicates;
    sum.forwarded += rs.forwarded;
    sum.rejected += rs.rejected;
    sum.ignored += rs.ignored;
    sum.payload_bytes_sent += rs.payload_bytes_sent;
    sum.control_bytes_sent += rs.control_bytes_sent;
  }
  o.counters.num("gs_delivered", static_cast<double>(sum.delivered))
      .num("gs_duplicates", static_cast<double>(sum.duplicates))
      .num("gs_forwarded", static_cast<double>(sum.forwarded))
      .num("gs_rejected", static_cast<double>(sum.rejected))
      .num("gs_ignored", static_cast<double>(sum.ignored))
      .num("gs_payload_bytes", static_cast<double>(sum.payload_bytes_sent))
      .num("gs_control_bytes", static_cast<double>(sum.control_bytes_sent));

  o.checks.num("honest_publish_failed", static_cast<double>(r.honest_unpublished))
      .num("expected_deliveries", static_cast<double>(expected_deliveries))
      .num("missing_deliveries", static_cast<double>(expected_deliveries - honest_deliveries))
      .num("violators_active", static_cast<double>(violators_active))
      .num("honest_members", static_cast<double>(w.publishers))
      .num("honest_inactive", static_cast<double>(honest_inactive));
  return o;
}

int run(const util::CliArgs& args) {
  const Workload& w = find_workload(args.get("workload", ""));
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::uint64_t epochs = args.get_u64("epochs", 0);
  const bool traced = args.get_u64("trace", 0) != 0;
  const std::string trace_out = args.get("trace-out", "");
  if (epochs == 0) throw std::invalid_argument("--epochs must be positive");
  if (traced && trace_out.empty()) throw std::invalid_argument("--trace 1 needs --trace-out");

  const auto run_t0 = Clock::now();
  std::unique_ptr<Trace> trace = traced ? std::make_unique<Trace>(run_t0) : nullptr;
  const Plan plan = make_plan(w, seed, epochs);
  const std::vector<std::size_t> violators = violators_of(w, epochs);
  const waku::HarnessConfig cfg = harness_config(w, seed);
  // One topic name for every workload: topic bytes are charged on the
  // wire and hashed into message ids, and relay_mesh_sharded must match
  // relay_mesh byte for byte.
  const std::string topic = "bench/e2e";

  // The last world set up carries the traffic. A traced run keeps the one
  // before it as its untraced twin; an untraced run holds one world at a time.
  std::vector<SetupTimes> setups(kSetupReps);
  TrafficRun main_run;
  std::unique_ptr<TrafficRun> twin = traced ? std::make_unique<TrafficRun>() : nullptr;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    if (twin && r + 1 == kSetupReps) {
      twin->world = std::move(main_run.world);
    } else {
      main_run.world.reset();
    }
    main_run.world = set_up(w, cfg, topic, setups[r], trace.get(), r);
  }
  main_run.trace = trace.get();
  sim::Scheduler& sched = main_run.world->scheduler();

  const Timeline tl = make_timeline(*main_run.world, cfg, epochs);
  schedule_traffic(main_run, w, plan, tl, topic, epochs);
  if (twin) {
    if (twin->world->scheduler().now() != sched.now()) {
      throw std::logic_error("twin world's clock differs after set-up");
    }
    schedule_traffic(*twin, w, plan, tl, topic, epochs);
  }

  std::unique_ptr<TimingSink> sink =
      traced ? std::make_unique<TimingSink>(sched, main_run.world->network()) : nullptr;
  MemoryPeaks mem;
  std::vector<std::uint64_t> lane_events0(sched.lane_count());
  for (std::size_t k = 0; k < sched.lane_count(); ++k) {
    lane_events0[k] = sched.lane_stats(k).executed;
  }
  std::vector<TimingSink::Lane> lanes_prev(sched.lane_count());

  // The traffic phase runs in segments, so run.py can report per-epoch
  // medians that short host stalls do not move. A traced run alternates
  // which of its two worlds runs a segment first.
  for (std::size_t i = 0; i < tl.seg_end.size(); ++i) {
    if (!twin) {
      run_segment(main_run, tl, i);
      continue;
    }
    if (i % 2 == 0) run_segment(*twin, tl, i);
    run_segment(main_run, tl, i);
    if (i % 2 == 1) run_segment(*twin, tl, i);
    const auto at = Clock::now();
    for (std::size_t k = 0; k < sink->lanes().size(); ++k) {
      const TimingSink::Lane& now = sink->lanes()[k];
      trace->counter("lane" + std::to_string(k) + ".dispatch", at,
                     "{\"frames\":" + std::to_string(now.frames - lanes_prev[k].frames) +
                         ",\"busy_ms\":" +
                         util::json_number(
                             static_cast<double>(now.busy_ns - lanes_prev[k].busy_ns) / 1e6) +
                         "}");
      lanes_prev[k] = now;
    }
    mem.sample(*main_run.world);
  }

  const auto collect_t0 = Clock::now();
  const Outcome outcome = collect(main_run, w, plan, tl, violators);
  const double collect_s = seconds_between(collect_t0, Clock::now());

  // Raw measurements.
  JsonObject setup_json;
  {
    std::vector<double> build, subscribe, reg, warmup, total;
    for (const SetupTimes& s : setups) {
      build.push_back(s.build);
      subscribe.push_back(s.subscribe);
      reg.push_back(s.reg);
      warmup.push_back(s.warmup);
      total.push_back(s.total);
    }
    setup_json.list("build", build).list("subscribe", subscribe).list("register", reg)
        .list("warmup", warmup).list("total", total);
  }

  JsonObject out;
  out.text("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .num("epochs", static_cast<double>(epochs))
      .num("nodes", static_cast<double>(w.nodes))
      .num("shards", static_cast<double>(sched.shard_count()))
      .num("traced", traced ? 1 : 0)
      .raw("setup", setup_json.str())
      .list("segment_wall_s", main_run.seg_wall)
      .list("segment_sim_s", main_run.seg_sim)
      .list("segment_deliveries", outcome.seg_deliveries)
      .num("collect_s", collect_s)
      .num("publish_busy_s", main_run.publish_busy_s)
      .list("publish_ms", main_run.publish_ms)
      .raw("counters", outcome.counters.str())
      .raw("checks", outcome.checks.str());
  if (traced) {
    std::vector<double> hist(kBuckets, 0);
    std::vector<double> lane_busy, lane_events;
    double busy_ns = 0;
    for (std::size_t k = 0; k < sink->lanes().size(); ++k) {
      const TimingSink::Lane& lane = sink->lanes()[k];
      for (std::size_t b = 0; b < kBuckets; ++b) hist[b] += static_cast<double>(lane.hist[b]);
      busy_ns += static_cast<double>(lane.busy_ns);
      lane_busy.push_back(static_cast<double>(lane.busy_ns) / 1e9);
      lane_events.push_back(static_cast<double>(sched.lane_stats(k).executed - lane_events0[k]));
    }
    while (!hist.empty() && hist.back() == 0) hist.pop_back();
    JsonObject layers;
    layers.num("deliver_busy_s", busy_ns / 1e9)
        .list("deliver_hist", hist)
        .list("lane_busy_s", lane_busy)
        .list("lane_events", lane_events)
        .num("mem_router_bytes", mem.router)
        .num("mem_mcache_bytes", mem.mcache)
        .num("mem_nullifier_bytes", mem.nullifier)
        .num("mem_merkle_bytes", mem.merkle)
        .num("mem_event_pool_bytes", mem.event_pool)
        .num("mem_network_bytes", mem.network);
    out.raw("layers", layers.str());
    const Outcome twin_outcome = collect(*twin, w, plan, tl, violators);
    JsonObject twin_json;
    twin_json.list("segment_wall_s", twin->seg_wall)
        .raw("counters", twin_outcome.counters.str())
        .raw("checks", twin_outcome.checks.str());
    out.raw("twin", twin_json.str());
  }
  out.num("peak_rss_mb", peak_rss_mb());
  if (trace) {
    trace->span("run", run_t0, Clock::now(),
                "{\"workload\":\"" + std::string(w.name) + "\",\"seed\":" +
                    std::to_string(seed) + "}");
    trace->write(trace_out);
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 2;
  }
}
