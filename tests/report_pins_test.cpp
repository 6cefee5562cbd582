// Byte-identity pins for the deterministic campaign reports.
//
// Every pre-existing catalogue scenario is run at a fixed shrink config
// (12 nodes, 3 traffic epochs, 2 seeds, single-threaded) and the
// resulting deterministic report — minus the one redacted memory-model
// metric (see support/report_pin.h) — is fingerprinted and compared
// against a captured table. A mismatch means a change leaked into
// protocol behaviour: message routing, RLN validation outcomes or
// metric values moved, which pure storage or execution-model refactors
// explicitly promise not to do.
//
// Scenarios added after the capture (e.g. geo_250k) are deliberately NOT
// pinned here; regenerate the table when a PR intentionally changes
// protocol behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "scenario/campaign.h"
#include "scenario/scenarios.h"
#include "support/report_pin.h"

namespace wakurln::scenario {
namespace {

struct ReportPin {
  const char* name;
  std::uint64_t fingerprint;
};

// Captured at 12 nodes / 3 traffic epochs / seeds {1, 2} / 1 thread.
// Recaptured for the sharded-scheduler work (PR 9): per-sender RNG
// streams and per-origin event stamps replaced the single global draw
// order, which moves loss/jitter decisions (and hence every downstream
// metric) for the same seed. The new values are pinned by
// world_threads_test to be identical at every shard count.
constexpr ReportPin kPins[] = {
    {"baseline_relay", 0xf550deb3a866f5f4ULL},
    {"spam_wave", 0x4169e6fb6fe1cbccULL},
    {"churn_storm", 0x738530d224fccdcaULL},
    {"partition_heal", 0x21934e7af6cce3d9ULL},
    {"mixed_rate", 0x70ef87a127e5b32aULL},
    {"large_mesh", 0x8df5a1b0833321a5ULL},
    {"iwant_replay", 0x3daa03ea513107f1ULL},
    {"huge_mesh", 0x3119cb81c6232fdeULL},
    {"observer_coalition", 0x62374fa57e0265edULL},
    {"eclipse_publisher", 0x15de68478fc25d21ULL},
    {"sybil_observers", 0xa1afb25ea25cfd39ULL},
    {"adaptive_spammer", 0xfeb170594c73555aULL},
    {"adaptive_prober", 0xd5a582414bb3b5b7ULL},
    {"registration_storm", 0xe89ce29d2b27a686ULL},
    {"multi_topic_mesh", 0x298f03630ac44906ULL},
    {"pow_baseline", 0xdfefb393ed3913c8ULL},
};

std::uint64_t pinned_fingerprint(const ReportPin& pin) {
  ScenarioSpec spec;
  bool found = false;
  for (const ScenarioSpec& s : registered_scenarios()) {
    if (s.name == pin.name) {
      spec = s;
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "scenario " << pin.name << " missing from catalogue";
  if (!found) return 0;

  spec.nodes = 12;
  spec.traffic_epochs = 3;
  CampaignConfig cfg;
  cfg.seeds = 2;
  cfg.seed0 = 1;
  cfg.threads = 1;
  const CampaignResult result = run_campaign(spec, cfg);
  const std::string report = pin::redact_memory_model(report_json(result));
  return pin::fnv1a(report);
}

class ReportPinTest : public ::testing::TestWithParam<ReportPin> {};

TEST_P(ReportPinTest, DeterministicReportIsByteIdentical) {
  const ReportPin& pin = GetParam();
  EXPECT_EQ(pinned_fingerprint(pin), pin.fingerprint)
      << "deterministic report for " << pin.name
      << " drifted from the pre-refactor capture";
}

INSTANTIATE_TEST_SUITE_P(Catalogue, ReportPinTest, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<ReportPin>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace wakurln::scenario
