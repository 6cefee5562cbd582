// E12 — §III: WAKU-RLN-RELAY adds RLN verification to every routing hop.
// This bench quantifies the added per-message router cost and wire
// overhead relative to plain WAKU-RELAY, plus end-to-end delivery latency
// of both protocols in the same simulated network.

#include <cstdio>

#include "harness.h"
#include "waku/harness.h"

using namespace wakurln;

namespace {

double median_latency_ms(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  return s[s.size() / 2];
}

}  // namespace

int main() {
  bench::Runner runner("routing_overhead");
  std::printf("E12: routing overhead, relay vs rln-relay (paper §III)\n\n");

  // -- wire overhead ----------------------------------------------------
  std::printf("-- wire overhead per message --\n");
  std::printf("%14s %14s %14s %10s\n", "payload", "relay bytes", "rln bytes", "extra");
  const std::size_t rln_extra = 4 + rln::RlnSignal::kWireSize + 4;  // var framing
  for (const std::size_t payload : {32u, 256u, 1024u, 4096u}) {
    std::printf("%12zu B %12zu B %12zu B %8zu B\n", payload, payload,
                payload + rln_extra, rln_extra);
  }
  runner.metric("wire_overhead_bytes", static_cast<double>(rln_extra), "bytes");

  // -- validation CPU cost ----------------------------------------------
  util::Rng rng(21);
  rln::RlnGroup group(20);
  const rln::Identity id = rln::Identity::generate(rng);
  const auto index = group.add_member(id.pk);
  const auto keys = zksnark::MockGroth16::setup(20, rng);
  const rln::RlnProver prover(keys.pk, id);
  const rln::RlnVerifier verifier(keys.vk);
  rln::NullifierMap nmap;
  const util::Bytes payload = util::to_bytes("routing overhead probe");
  const auto signal = prover.create_signal(payload, 3, group, index, rng);

  const auto& verify_stats = runner.run(
      "proof_verification",
      [&] {
        for (int i = 0; i < 200; ++i) {
          const field::Fr x = zksnark::RlnCircuit::message_to_x(payload);
          bool ok = verifier.verify_prepared(*signal, x);
          bench::do_not_optimize(ok);
        }
      },
      /*reps=*/20, /*warmup=*/3, /*batch=*/200);
  std::uint64_t nmap_key = 0;
  const auto& nmap_stats = runner.run(
      "nullifier_map_check",
      [&] {
        for (int i = 0; i < 200; ++i) {
          auto r = nmap.observe(3, signal->nullifier,
                                field::Fr::from_u64(nmap_key++), signal->y);
          bench::do_not_optimize(r);
        }
      },
      /*reps=*/20, /*warmup=*/3, /*batch=*/200);
  const double verify_us = verify_stats.median_ns / 1000.0;
  const double nmap_us = nmap_stats.median_ns / 1000.0;
  std::printf("\n-- per-hop validation cost (measured, depth-20 group) --\n");
  std::printf("proof verification: %8.2f us   (real Groth16 anchor: ~30 ms)\n",
              verify_us);
  std::printf("nullifier-map check: %7.2f us\n", nmap_us);
  std::printf("plain relay:         %7.2f us   (no validation)\n", 0.0);

  // -- end-to-end delivery latency in the same network --------------------
  std::printf("\n-- end-to-end delivery latency, 30 peers (simulated network) --\n");
  for (const bool with_rln : {false, true}) {
    waku::HarnessConfig cfg = waku::HarnessConfig::defaults();
    cfg.node_count = 30;
    cfg.seed = 97;
    waku::SimHarness world(cfg);
    std::vector<double> lat_ms;
    if (with_rln) {
      world.subscribe_all("bench/route");
      world.register_all();
      world.run_seconds(5);
      for (int m = 0; m < 5; ++m) {
        world.clear_deliveries();
        const auto p = util::to_bytes(bench::cat("m", m));
        const sim::TimeUs sent = world.scheduler().now();
        world.node(m).publish("bench/route", p);
        world.run_seconds(10);
        for (const auto& d : world.deliveries()) {
          lat_ms.push_back(static_cast<double>(d.at - sent) / sim::kUsPerMs);
        }
      }
    } else {
      // Plain relay over the same harness network: publish raw payloads.
      std::vector<std::pair<sim::TimeUs, sim::TimeUs>> unused;
      std::vector<double>* sink = &lat_ms;
      sim::TimeUs sent = 0;
      for (std::size_t i = 0; i < world.size(); ++i) {
        world.relay(i).subscribe("bench/raw",
                                 [&world, sink, &sent](const gossipsub::TopicId&,
                                                       const util::SharedBytes&) {
                                   sink->push_back(
                                       static_cast<double>(world.scheduler().now() -
                                                           sent) /
                                       sim::kUsPerMs);
                                 });
      }
      world.run_seconds(5);
      for (int m = 0; m < 5; ++m) {
        sent = world.scheduler().now();
        world.relay(m).publish("bench/raw", util::to_bytes(bench::cat("m", m)));
        world.run_seconds(10);
      }
      (void)unused;
    }
    runner.metric(with_rln ? "rln_sim_median_latency_ms" : "relay_sim_median_latency_ms",
                  median_latency_ms(lat_ms), "ms");
    std::printf("%-12s median delivery latency: %7.1f ms (%zu deliveries)\n",
                with_rln ? "rln-relay" : "relay", median_latency_ms(lat_ms),
                lat_ms.size());
  }

  std::printf("\nshape check: RLN adds ~240 B per message and a constant per-hop\n"
              "validation cost; propagation latency in the same network stays in\n"
              "the same range (network delay dominates CPU validation).\n");
  return 0;
}
