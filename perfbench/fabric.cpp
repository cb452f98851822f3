// Workload `fabric`: routing table build and the flow walk, with no DES and
// no protocol.
//
// Input: the n=4, k=16 fat tree <0,0,0> (3,584 switches, 8,192 hosts).
// One pass:
//   * churn — kLinksPerLevel seeded links at each switch level, in seeded
//     order: fail → incremental patch → heal → incremental patch, every
//     heal checked against the baseline digests.  For one link in
//     kGroups (the pass's group, which rotates from pass to pass) the
//     failed overlay is also recomputed from scratch at nproc threads and
//     the fail patch checked against it by digest; the first kSerialPerPass
//     of them are recomputed again at 1 thread and must be identical,
//     table for table, to the patched tables.  Checks run outside the
//     timed calls.  A phase runs at least kGroups passes, so every fail
//     patch of the run is checked against a from-scratch recompute.  The
//     from-scratch recomputes are the full_recompute_ms samples (nproc) and
//     the serial samples (1 thread).
//   * flow epoch — kFlows uniform flows admitted, then one FlowPlane::step
//     over the healthy tables at nproc plane threads; every flow must be
//     delivered and the fate fingerprint must repeat across passes.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/tree_setup.h"
#include "src/routing/updown.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"
#include "src/traffic/flow_plane.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using namespace aspen;

constexpr int kLevels = 4;
constexpr int kPorts = 16;
constexpr const char* kFtv = "<0,0,0>";
// 3 switch levels → 51 links, 102 patches per pass.
constexpr std::size_t kLinksPerLevel = 17;
// 17 from-scratch recomputes per pass; 3 passes check all 51 fail patches.
constexpr std::size_t kGroups = 3;
constexpr int kSerialPerPass = 2;
constexpr std::uint64_t kFlows = 1'200'000;
/// state_fingerprint of the intact tree's converged tables (seed-free).
constexpr std::uint64_t kStateFingerprint = 0xcabe2c17b047ae54;

/// kLinksPerLevel distinct links from every switch level (2..n), drawn
/// and ordered by the run's seed.
std::vector<LinkId> churn_links(const Topology& topo, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LinkId> out;
  for (int level = 2; level <= topo.levels(); ++level) {
    std::vector<LinkId> pool(topo.links_at_level(level).begin(),
                             topo.links_at_level(level).end());
    for (std::size_t i = 0; i < kLinksPerLevel; ++i) {
      std::swap(pool[i], pool[i + rng.index(pool.size() - i)]);
      out.push_back(pool[i]);
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.index(i)]);
  }
  return out;
}

bool identical(const RoutingState& a, const RoutingState& b) {
  return a.tables == b.tables && a.digests == b.digests;
}

}  // namespace

void run_fabric(Run& run) {
  const int threads = run.threads();
  run.input("churn", std::to_string(kLinksPerLevel) +
                         " links per switch level, fail+heal patches");
  run.input("flows", std::to_string(kFlows) + " uniform, one healthy epoch");

  TreeSetup tree(kLevels, kPorts, kFtv);
  run.setup([&] { tree(run); });
  const Topology& topo = tree.topo();
  run.input("tree", tree.describe());
  const RoutingState& baseline = tree.routes();
  run.input("switches", std::to_string(topo.num_switches()));
  run.input("hosts", std::to_string(topo.num_hosts()));

  const std::uint64_t fingerprint = state_fingerprint(baseline);
  run.expect(fingerprint == kStateFingerprint,
             "intact state fingerprint equals the recorded one");
  std::printf("state_fingerprint 0x%016llx\n",
              static_cast<unsigned long long>(fingerprint));

  const std::vector<LinkId> churn = churn_links(topo, run.seed());
  const LinkStateOverlay intact(topo);

  // Samples, split by phase: figures come from untraced passes, per-layer
  // metrics from traced ones.
  std::vector<double> full_ms, serial_ms, patch_ms, step_s;
  std::vector<CallCost> t_full, t_serial;
  std::vector<double> t_patch_ms, t_admit_ms, t_step_ms, t_verify_ms;
  RecomputeStats t_rows{};
  double t_rows_patched = 0, t_rows_escalated = 0, t_rows_full = 0;
  std::optional<std::uint64_t> first_fates;
  std::size_t pass_index = 0;

  run.measure([&](bool traced) {
    RoutingState state = baseline;
    LinkStateOverlay overlay(topo);
    const std::size_t group = pass_index++ % kGroups;
    int serial_left = kSerialPerPass;
    double verify_ms = 0.0;
    for (std::size_t i = 0; i < churn.size(); ++i) {
      const LinkId changed[] = {churn[i]};
      const std::string link = std::to_string(churn[i].value());

      overlay.fail(churn[i]);
      RecomputeStats stats{};
      const CallCost fail = run.cost([&] {
        stats = recompute_updown_routes(topo, overlay, state, changed,
                                        threads);
      });
      if (i % kGroups == group) {
        RoutingState fresh;
        const CallCost full = run.cost([&] {
          fresh = compute_updown_routes(topo, overlay, DestGranularity::kEdge,
                                        threads);
        });
        verify_ms += run.cost([&] {
          run.expect(tables_match_by_digest(state, fresh),
                     "fail patch of link " + link +
                         " equals a full recompute");
        }).wall_ms;
        fresh = RoutingState{};  // bounds peak RSS at three states
        if (traced) {
          t_full.push_back(full);
        } else {
          full_ms.push_back(full.wall_ms);
        }
      }
      if (i % kGroups == group && serial_left > 0) {
        --serial_left;
        RoutingState serial;
        const CallCost one = run.cost([&] {
          serial = compute_updown_routes(topo, overlay,
                                         DestGranularity::kEdge, 1);
        });
        verify_ms += run.cost([&] {
          run.expect(identical(serial, state),
                     "1-thread recompute equals the nproc-patched tables "
                     "(link " + link + ")");
        }).wall_ms;
        if (traced) {
          t_serial.push_back(one);
        } else {
          serial_ms.push_back(one.wall_ms);
        }
      }

      overlay.recover(churn[i]);
      RecomputeStats healed{};
      const CallCost heal = run.cost([&] {
        healed = recompute_updown_routes(topo, overlay, state, changed,
                                         threads);
      });
      verify_ms += run.cost([&] {
        run.expect(tables_match_by_digest(state, baseline),
                   "heal of link " + link + " restores the baseline digests");
      }).wall_ms;

      if (traced) {
        for (const RecomputeStats& s : {stats, healed}) {
          t_rows.total_dests += s.total_dests;
          t_rows.full_rows += s.full_rows;
          t_rows.escalated_rows += s.escalated_rows;
          t_rows.patched_switches += s.patched_switches;
        }
        t_patch_ms.push_back(fail.wall_ms);
        t_patch_ms.push_back(heal.wall_ms);
      } else {
        patch_ms.push_back(fail.wall_ms);
        patch_ms.push_back(heal.wall_ms);
      }
    }

    FlowPlaneOptions plane_options;
    plane_options.base_seed = run.seed();
    plane_options.threads = threads;
    FlowPlane plane(topo, plane_options);
    const CallCost admit = run.cost([&] { (void)plane.admit_uniform(kFlows); });
    FlowStepStats step{};
    const CallCost walk = run.cost([&] { step = plane.step(baseline, intact); });
    verify_ms += run.cost([&] {
      run.expect(step.attempted == kFlows && step.delivered == kFlows &&
                     plane.delivered() == plane.admitted(),
                 "healthy epoch delivers every admitted flow");
      const std::uint64_t fates = plane.fate_fingerprint();
      if (!first_fates) first_fates = fates;
      run.expect(fates == *first_fates, "flow fate fingerprint repeats");
    }).wall_ms;

    if (traced) {
      t_admit_ms.push_back(admit.wall_ms);
      t_step_ms.push_back(walk.wall_ms);
      t_verify_ms.push_back(verify_ms);
      t_rows_patched += Run::counter("routing.rows_patched");
      t_rows_escalated += Run::counter("routing.rows_escalated");
      t_rows_full += Run::incremental_full_rows(baseline.num_dests());
      Run::take_counters();
    } else {
      step_s.push_back(walk.wall_ms / 1e3);
    }
  }, kGroups);

  run.figure("full_recompute_ms_p50", median(full_ms), "ms", full_ms.size());
  run.figure("full_recompute_serial_ms_p50", median(serial_ms), "ms",
             serial_ms.size());
  run.figure_tail("incremental_ms", patch_ms, "ms");
  run.figure("flows_per_s", static_cast<double>(kFlows) / median(step_s),
             "1/s", step_s.size());

  if (!run.traced()) return;
  const double passes = run.traced_passes();
  tree.report(run);
  // The churn's from-scratch recomputes replace the set-up's own compute.
  report_compute(run, "routing.compute", t_full, threads);
  report_compute(run, "routing.compute_t1", t_serial, 1);
  const Tail tail = tail_percentile(t_patch_ms);
  run.layer("routing.recompute_ms", median(t_patch_ms));
  run.layer("routing.recompute_tail_ms", tail.value);
  run.layer("routing.recompute_tail_pct", tail.pct);
  run.layer("routing.recompute_samples", static_cast<double>(tail.samples));
  run.layer("routing.rows_patched", t_rows_patched / passes);
  run.layer("routing.rows_escalated", t_rows_escalated / passes);
  run.layer("routing.rows_full", t_rows_full / passes);
  run.layer("routing.patched_switches",
            static_cast<double>(t_rows.patched_switches) / passes);
  run.layer("routing.untouched_ratio",
            static_cast<double>(t_rows.untouched_rows()) /
                static_cast<double>(t_rows.total_dests));
  run.layer("routing.verify_ms", median(t_verify_ms));
  run.layer("traffic.admit_ms", median(t_admit_ms));
  run.layer("traffic.step_ms", median(t_step_ms));
  run.layer("traffic.flows_walked", static_cast<double>(kFlows));
  run.layer("traffic.ns_per_flow",
            median(t_step_ms) * 1e6 / static_cast<double>(kFlows));
}

}  // namespace perfbench
