// Workload `survive`: Monte Carlo survivability on a small tree, routing
// used the opposite way from `fabric` — many tiny DeltaSession apply /
// rollback patches plus a reachability pass per sample, across workers.
//
// Input: the n=4, k=6 Aspen tree <0,0,2> (63 switches), independent link
// failure domains, kSamples samples of at most 32 steps, nproc threads.
// The run's seed is the campaign seed.  One pass is one run_survivability
// call; it must quarantine nothing and repeat its accumulator fingerprint,
// and one untimed call at 1 thread must give the same fingerprint.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/tree_setup.h"
#include "src/analysis/survivability.h"
#include "src/fault/failure_domains.h"

namespace perfbench {

namespace {

using namespace aspen;

constexpr std::uint64_t kSamples = 100'000;
constexpr std::uint32_t kMaxSteps = 32;
/// Accumulator fingerprint at the workload's default seed.
constexpr std::uint64_t kRecordedFingerprint = 0xa06990d8c5f7c530;

}  // namespace

void run_survive(Run& run) {
  TreeSetup tree(4, 6, "<0,0,2>");
  std::optional<fault::FailureDomainModel> domains;
  run.setup([&] {
    tree(run);
    fault::FailureDomainModel model =
        fault::FailureDomainModel::independent(tree.topo());
    if (!domains) domains.emplace(std::move(model));
  });
  const Topology& topo = tree.topo();
  run.input("tree", tree.describe());
  run.input("domains", "independent links");
  run.input("samples", std::to_string(kSamples) + ", max_steps 32");

  SurvivabilityOptions options;
  options.seed = run.seed();
  options.samples = kSamples;
  options.max_steps = kMaxSteps;
  options.threads = run.threads();

  std::vector<double> run_s, verify_ms;
  std::vector<CallCost> traced_calls;
  std::optional<std::uint64_t> first;
  SurvivabilityAccumulators acc;

  run.measure([&](bool traced) {
    SurvivabilityResult result;
    const CallCost c = run.cost(
        [&] { result = run_survivability(topo, *domains, options); });
    const double verify = run.cost([&] {
      run.expect(result.acc.quarantined == 0, "no quarantined samples");
      run.expect(result.samples == kSamples &&
                     result.acc.committed_samples == kSamples,
                 "every sample committed");
      const std::uint64_t fingerprint = result.acc.fingerprint();
      if (!first) {
        first = fingerprint;
        std::printf("survive fingerprint 0x%016llx\n",
                    static_cast<unsigned long long>(fingerprint));
      }
      run.expect(fingerprint == *first, "accumulator fingerprint repeats");
      if (run.default_seed()) {
        run.expect(fingerprint == kRecordedFingerprint,
                   "accumulator fingerprint equals the recorded one");
      }
    }).wall_ms;
    if (traced) {
      traced_calls.push_back(c);
      verify_ms.push_back(verify);
      acc = result.acc;
    } else {
      run_s.push_back(c.wall_ms / 1e3);
    }
  });

  SurvivabilityOptions serial = options;
  serial.threads = 1;
  run.single_threaded([&] {
    const SurvivabilityResult one = run_survivability(topo, *domains, serial);
    run.expect(one.acc.fingerprint() == *first,
               "1-thread accumulator fingerprint equals the nproc one");
  });

  run.figure("samples_per_s", static_cast<double>(kSamples) / median(run_s),
             "1/s", run_s.size());

  if (!run.traced()) return;
  tree.report(run);
  run.layer("routing.verify_ms", median(verify_ms));
  std::vector<double> wall, cpu;
  for (const CallCost& c : traced_calls) {
    wall.push_back(c.wall_ms);
    cpu.push_back(c.cpu_ms);
  }
  const double survive_ms = median(wall);
  const double steps = static_cast<double>(acc.sum_steps);
  run.layer("analysis.survive_ms", survive_ms);
  run.layer("analysis.cpu_ms", median(cpu));
  run.layer("analysis.steps", steps);
  run.layer("analysis.us_per_step", steps > 0 ? survive_ms * 1e3 / steps : 0.0);
  run.layer("analysis.incremental_full_rows",
            static_cast<double>(acc.incremental_full_rows));
  run.layer("analysis.incremental_patched_switches",
            static_cast<double>(acc.incremental_patched_switches));
  run.layer("analysis.rollback_rebuilds",
            static_cast<double>(acc.rollback_rebuilds));
  run.layer("analysis.audits_run", static_cast<double>(acc.audits_run));
  run.layer("analysis.quarantined", static_cast<double>(acc.quarantined));
}

}  // namespace perfbench
