// Workload `serve`: the what-if query service under live chaos.
//
// Input: the n=4, k=6 Aspen tree <0,0,2>, ANP, and bench_serve's headline
// options scaled to kQueries queries — 40 chaos actions spread over the
// query window, 8 clients over 15%-drop / 5%-duplicate channels, a seal
// every 2 actions and a checkpoint every kQueries/6 answers.  The run's
// seed is the chaos seed, which also seeds the query and client streams.
// One pass is one run_serve_under_chaos call; it must pass its own
// post-hoc audit with zero mismatches and repeat its report fingerprint,
// and one untimed call at 1 thread must give the same fingerprint.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/tree_setup.h"
#include "src/serve/driver.h"

namespace perfbench {

namespace {

using namespace aspen;

constexpr int kQueries = 50'000;
constexpr int kActions = 40;
/// Report fingerprint at the workload's default seed.
constexpr std::uint64_t kRecordedFingerprint = 0x9af51e57c3f136e4;

serve::ServeChaosOptions serve_options(std::uint64_t seed, int threads) {
  serve::ServeChaosOptions options;
  options.chaos.seed = seed;
  options.chaos.num_events = kActions;
  options.chaos.check_flows = 64;
  options.chaos.check_every = 10;
  options.num_queries = kQueries;
  options.num_clients = 8;
  options.query_interarrival_ms = 0.5;
  options.action_every_ms = kQueries * options.query_interarrival_ms /
                            (kActions + 1);
  options.seal_every_actions = 2;
  options.checkpoint_every = kQueries / 6;
  options.client.channel.drop_rate = 0.15;
  options.client.channel.duplicate_rate = 0.05;
  options.client.channel.jitter_ms = 0.3;
  options.threads = threads;
  return options;
}

}  // namespace

void run_serve(Run& run) {
  TreeSetup tree(4, 6, "<0,0,2>");
  run.setup([&] { tree(run); });
  const Topology& topo = tree.topo();
  run.input("tree", tree.describe());
  run.input("protocol", "anp");
  run.input("queries", std::to_string(kQueries) +
                           ", 8 clients, 15% drop / 5% dup, 40 actions");

  const serve::ServeChaosOptions options =
      serve_options(run.seed(), run.threads());
  std::vector<double> run_s, traced_run_ms, verify_ms;
  std::optional<std::uint64_t> first;
  serve::ServeChaosReport last;

  run.measure([&](bool traced) {
    serve::ServeChaosReport report;
    const CallCost c = run.cost([&] {
      report = serve::run_serve_under_chaos(ProtocolKind::kAnp, topo, options);
    });
    const double verify = run.cost([&] {
      run.expect(report.passed(), "serve campaign passes its audit");
      run.expect(report.audit_mismatches == 0, "zero audit mismatches");
      const std::uint64_t fingerprint = report.fingerprint();
      if (!first) {
        first = fingerprint;
        std::printf("serve fingerprint 0x%016llx\n",
                    static_cast<unsigned long long>(fingerprint));
      }
      run.expect(fingerprint == *first, "report fingerprint repeats");
      if (run.default_seed()) {
        run.expect(fingerprint == kRecordedFingerprint,
                   "report fingerprint equals the recorded one");
      }
    }).wall_ms;
    if (traced) {
      traced_run_ms.push_back(c.wall_ms);
      verify_ms.push_back(verify);
      last = std::move(report);
    } else {
      run_s.push_back(c.wall_ms / 1e3);
    }
  });

  serve::ServeChaosOptions serial = options;
  serial.threads = 1;
  run.single_threaded([&] {
    const serve::ServeChaosReport one =
        serve::run_serve_under_chaos(ProtocolKind::kAnp, topo, serial);
    run.expect(one.fingerprint() == *first,
               "1-thread report fingerprint equals the nproc one");
  });

  run.figure("queries_per_s", kQueries / median(run_s), "1/s", run_s.size());

  if (!run.traced()) return;
  tree.report(run);
  run.layer("routing.verify_ms", median(verify_ms));
  const double lookups =
      static_cast<double>(last.cache_hits + last.cache_misses);
  run.layer("serve.run_ms", median(traced_run_ms));
  run.layer("serve.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(last.cache_hits) / lookups : 0.0);
  run.layer("serve.cache_lookups", lookups);
  run.layer("serve.seals", static_cast<double>(last.seals));
  run.layer("serve.checkpoints", static_cast<double>(last.checkpoints_cut));
  run.layer("serve.retransmits", static_cast<double>(last.clients.retransmits));
  run.layer("serve.duplicate_replays",
            static_cast<double>(last.server.duplicate_replays));
  run.layer("serve.coalesced", static_cast<double>(last.server.coalesced));
  run.layer("serve.audited", static_cast<double>(last.audited));
}

}  // namespace perfbench
