// Scenario campaign CLI: runs the registered large-scale experiments
// (spam waves, churn storms, partitions, PoW comparison, ...) across seed
// sweeps on a thread pool and writes one SCENARIO_<name>.json report per
// scenario. Same (scenario, seeds) input → byte-identical report.
//
//   build/examples/scenario_runner --list
//   build/examples/scenario_runner --scenario spam_wave
//   build/examples/scenario_runner --all --seeds 5 --threads 4 --out .
//
// Flags (all optional):
//   --list              print the scenario catalogue and exit
//   --scenario NAME     run one scenario            --all     run every one
//   --seeds K           sweep K seeds (default 3)   --seed0 S first seed (1)
//   --threads T         worker threads (default: min(seeds, cores))
//   --nodes N           override the spec's network size
//   --epochs E          override the spec's traffic epochs
//   --payload-bytes P   pad published payloads to P bytes (0 = bare key)
//   --topics K          carry K content topics (round-robin publishers)
//   --link-profile L    uniform | geo (per-link latency from region pairs)
//   --world-threads W   scheduler shards per run (default 1; every
//                       deterministic report byte is identical at any W)
//   --obs               sample the per-epoch time series (TIMESERIES_*.json)
//   --trace             record the seed0 message-lifecycle trace
//                       (TRACE_*.json, Chrome trace-event format; load it
//                       in ui.perfetto.dev or chrome://tracing)
//   --trace-capacity C  tracer ring size in events (default 65536)
//   --out DIR           directory for SCENARIO_<name>.json (default CWD)

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "scenario/campaign.h"
#include "scenario/scenarios.h"
#include "sim/topology.h"
#include "util/cli.h"

using namespace wakurln;

namespace {

void print_catalogue() {
  std::printf("registered scenarios:\n");
  for (const scenario::ScenarioSpec& s : scenario::registered_scenarios()) {
    std::printf("  %-20s %s\n", s.name.c_str(), s.description.c_str());
  }
}

void run_one(scenario::ScenarioSpec spec, const util::CliArgs& args) {
  spec.nodes = static_cast<std::size_t>(args.get_u64("nodes", spec.nodes));
  spec.traffic_epochs = args.get_u64("epochs", spec.traffic_epochs);
  spec.payload_bytes =
      static_cast<std::size_t>(args.get_u64("payload-bytes", spec.payload_bytes));
  spec.topics = static_cast<std::size_t>(args.get_u64("topics", spec.topics));
  if (args.has("link-profile")) {
    spec.link_profile = sim::link_profile_from_name(args.get("link-profile", ""));
  }
  spec.world_threads =
      static_cast<unsigned>(args.get_u64("world-threads", spec.world_threads));
  if (args.has("obs")) spec.observability = true;
  if (args.has("trace")) spec.trace = true;
  spec.trace_capacity =
      static_cast<std::size_t>(args.get_u64("trace-capacity", spec.trace_capacity));

  scenario::CampaignConfig cfg;
  cfg.seeds = static_cast<std::size_t>(args.get_u64("seeds", 3));
  cfg.seed0 = args.get_u64("seed0", 1);
  cfg.threads = static_cast<std::size_t>(args.get_u64("threads", 0));

  std::printf("== scenario %s: %zu nodes, %llu epochs, %zu seeds ==\n",
              spec.name.c_str(), spec.nodes,
              static_cast<unsigned long long>(spec.traffic_epochs), cfg.seeds);
  const scenario::CampaignResult result = scenario::run_campaign(spec, cfg);

  std::printf("%-28s %14s %14s %14s\n", "metric", "mean", "min", "max");
  for (const scenario::AggregateMetric& a : result.aggregate) {
    std::printf("%-28s %14.3f %14.3f %14.3f\n", a.name.c_str(), a.mean, a.min, a.max);
  }
  const std::string out_dir = args.get("out", std::string());
  const std::string path = scenario::write_report(result, out_dir);
  std::printf("wrote %s\n", path.c_str());
  const std::string ts_path = scenario::write_timeseries(result, out_dir);
  if (!ts_path.empty()) std::printf("wrote %s\n", ts_path.c_str());
  const std::string trace_path = scenario::write_trace(result, out_dir);
  if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv);
    if (args.has("list")) {
      print_catalogue();
      return 0;
    }
    if (args.has("all")) {
      for (const scenario::ScenarioSpec& s : scenario::registered_scenarios()) {
        run_one(s, args);
      }
      return 0;
    }
    if (args.has("scenario")) {
      run_one(scenario::find_scenario(args.get("scenario", "")), args);
      return 0;
    }
    std::printf("no --scenario given; running the default catalogue listing.\n");
    std::printf("usage: %s --list | --scenario NAME | --all "
                "[--seeds K] [--seed0 S] [--threads T] [--nodes N] [--epochs E] "
                "[--payload-bytes P] [--topics K] [--link-profile uniform|geo] "
                "[--world-threads W] [--obs] [--trace] "
                "[--trace-capacity C] "
                "[--out DIR]\n\n",
                args.program().c_str());
    print_catalogue();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 1;
  }
}
