// E9 — §I/§IV claims: WAKU-RLN-RELAY's "light computational overhead makes
// it suitable for resource-limited environments", unlike PoW where pricing
// out attackers prices out phones first.
//
// Per-message cost table across device classes: PoW sealing time at
// increasing difficulty vs the (modelled) RLN proving cost and the
// verification cost a routing peer pays.

#include <cstdio>

#include "baselines/pow.h"
#include "harness.h"
#include "rln/group.h"
#include "rln/identity.h"
#include "rln/prover.h"
#include "zksnark/cost_model.h"
#include "zksnark/rln_circuit.h"

using namespace wakurln;

int main() {
  bench::Runner runner("device_overhead");
  std::printf("E9: per-message sender cost by device class (paper §I/§IV)\n\n");

  std::printf("-- PoW sealing time (expected), seconds per message --\n");
  std::printf("%12s", "difficulty");
  for (const auto& dev : zksnark::DeviceProfile::all()) {
    std::printf(" %12s", dev.name.c_str());
  }
  std::printf("\n");
  for (const int bits : {16, 20, 24, 28}) {
    std::printf("%9d bit", bits);
    for (const auto& dev : zksnark::DeviceProfile::all()) {
      std::printf(" %12.4f", baselines::expected_seal_seconds(bits, dev));
    }
    std::printf("\n");
  }

  std::printf("\n-- RLN cost (modelled real Groth16, depth-32 group = 2^32 members) --\n");
  std::printf("%12s", "");
  for (const auto& dev : zksnark::DeviceProfile::all()) {
    std::printf(" %12s", dev.name.c_str());
  }
  std::printf("\n%12s", "prove (s)");
  for (const auto& dev : zksnark::DeviceProfile::all()) {
    std::printf(" %12.4f", zksnark::CostModel::prove_ms(32, dev) / 1000.0);
  }
  std::printf("\n%12s", "verify (s)");
  for (const auto& dev : zksnark::DeviceProfile::all()) {
    std::printf(" %12.4f", zksnark::CostModel::verify_ms(dev) / 1000.0);
  }

  // Measured cost of this implementation's full signal pipeline (mock
  // proof backend) for context.
  util::Rng rng(11);
  rln::RlnGroup group(20);
  const rln::Identity id = rln::Identity::generate(rng);
  const auto index = group.add_member(id.pk);
  const auto keys = zksnark::MockGroth16::setup(20, rng);
  const rln::RlnProver prover(keys.pk, id);
  const rln::RlnVerifier verifier(keys.vk);
  const util::Bytes payload = util::to_bytes("device overhead probe");

  std::optional<rln::RlnSignal> signal;
  std::uint64_t epoch = 0;
  const auto& prove_stats = runner.run(
      "create_signal",
      [&] {
        for (int i = 0; i < 10; ++i) {
          signal = prover.create_signal(payload, epoch++, group, index, rng);
          bench::do_not_optimize(signal);
        }
      },
      /*reps=*/20, /*warmup=*/3, /*batch=*/10);
  const auto& verify_stats = runner.run(
      "verify_signal",
      [&] {
        for (int i = 0; i < 50; ++i) {
          const field::Fr x = zksnark::RlnCircuit::message_to_x(payload);
          bool ok = verifier.verify_prepared(*signal, x);
          bench::do_not_optimize(ok);
        }
      },
      /*reps=*/20, /*warmup=*/3, /*batch=*/50);
  const double prove_us = prove_stats.median_ns / 1000.0;
  const double verify_us = verify_stats.median_ns / 1000.0;
  std::printf("\n\n-- measured on this host (mock backend, depth 20) --\n");
  std::printf("signal creation: %.1f us/msg, verification: %.1f us/msg\n", prove_us,
              verify_us);

  for (const auto& dev : zksnark::DeviceProfile::all()) {
    runner.metric("modeled_prove_s_" + dev.name,
                  zksnark::CostModel::prove_ms(32, dev) / 1000.0, "s");
    runner.metric("modeled_verify_s_" + dev.name,
                  zksnark::CostModel::verify_ms(dev) / 1000.0, "s");
  }

  std::printf("\nshape check: RLN's sender cost is CONSTANT in difficulty-space and\n"
              "~0.5 s even on a phone (paper anchor), while PoW at an\n"
              "attacker-deterring 28-bit target costs a phone >2 minutes per\n"
              "message. Router-side: one RLN verification ≈30 ms, one PoW check\n"
              "is 1 hash — both fine; only PoW's *sender* economics break.\n");
  return 0;
}
