// Workload `flow-chaos`: the paper's ANP-vs-LSP comparison priced in host
// time.
//
// Input: the n=4, k=12 fat tree <0,0,0> (1,512 switches), the 24-action
// schedule of chaos seed 7 with default ChaosOptions, 400k uniform flows
// at nproc plane threads.  The schedule is the same in every run, because
// it sets how much protocol work there is; the run's seed draws the flows
// (admission and per-flow ECMP seeds).  One untraced pass runs
// run_flow_chaos under LSP, then under ANP on the identical schedule.
//
// A traced pass drives the same loop through the public API from here —
// ChaosCampaign construction, one admit + one step per advance(), finish(),
// the drain epochs — so campaign time splits into fault.* and traffic.*;
// its fate fingerprint must equal the untraced run_flow_chaos one.  One
// untimed run_flow_chaos per protocol at 1 thread must give the same fate
// fingerprint as the nproc passes.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/tree_setup.h"
#include "src/fault/chaos.h"
#include "src/traffic/flow_plane.h"

namespace perfbench {

namespace {

using namespace aspen;

constexpr std::uint64_t kChaosSeed = 7;
constexpr int kActions = 24;
constexpr std::uint64_t kFlows = 400'000;

/// Recorded outcome at the workload's default seed.
struct Recorded {
  std::uint64_t fates;
  std::uint64_t lost;
};

/// One traced campaign, split by layer.
struct TracedCampaign {
  double total_ms = 0.0;
  double init_ms = 0.0;
  double advance_ms = 0.0;
  double finish_ms = 0.0;
  double admit_ms = 0.0;
  double step_ms = 0.0;
  std::uint64_t flows_walked = 0;
  std::vector<double> advance_calls_ms;
};

constexpr Recorded kLspRecorded{0xc9cc2c436c478b30, 74};
constexpr Recorded kAnpRecorded{0xf5d239b10c0ae37b, 119};

struct Protocol {
  ProtocolKind kind = ProtocolKind::kLsp;
  const char* tag = "";
  Recorded recorded{};
  std::vector<double> campaign_s;
  std::optional<std::uint64_t> fates;
  // Traced-pass samples and per-pass counter sums.
  std::vector<TracedCampaign> traced;
  double events = 0, lsa_installs = 0, sent_total = 0;
  double messages = 0, retransmits = 0, acks = 0;
  double checks = 0, checked_flows = 0;
};

FlowChaosOptions campaign_options(std::uint64_t seed, int threads) {
  FlowChaosOptions options;
  options.chaos.seed = kChaosSeed;
  options.chaos.num_events = kActions;
  options.plane.base_seed = seed;
  options.plane.threads = threads;
  options.total_flows = kFlows;
  return options;
}

/// run_flow_chaos's loop, re-driven through the public API with every
/// layer call timed; fills `report` with the plane's accounting and the
/// campaign outcome.
TracedCampaign traced_campaign(Run& run, ProtocolKind kind,
                               const Topology& topo,
                               const FlowChaosOptions& options,
                               FlowChaosReport& report) {
  TracedCampaign t;
  const double start = now_s();
  std::optional<fault::ChaosCampaign> campaign;
  t.init_ms = run.cost([&] { campaign.emplace(kind, topo, options.chaos); })
                  .wall_ms;
  std::optional<FlowPlane> plane;
  t.admit_ms += run.cost([&] { plane.emplace(topo, options.plane); }).wall_ms;

  const auto batches = static_cast<std::uint64_t>(kActions) + 1;
  const std::uint64_t per_batch = options.total_flows / batches;
  const auto admit = [&](std::uint64_t count) {
    t.admit_ms += run.cost([&] { (void)plane->admit_uniform(count); }).wall_ms;
  };
  const auto step = [&] {
    t.step_ms += run.cost([&] {
      t.flows_walked += plane->step(campaign->protocol().tables(),
                                    campaign->overlay(),
                                    static_cast<double>(plane->epochs()))
                            .attempted;
    }).wall_ms;
  };

  admit(per_batch + options.total_flows % batches);
  step();
  for (;;) {
    bool more = false;
    const double ms = run.cost([&] { more = campaign->advance(); }).wall_ms;
    t.advance_ms += ms;
    if (!more) break;
    t.advance_calls_ms.push_back(ms);
    admit(per_batch);
    step();
  }
  t.finish_ms = run.cost([&] { campaign->finish(); }).wall_ms;
  for (int i = 0; i < options.drain_epochs && plane->inflight() > 0; ++i) {
    step();
  }
  t.total_ms = (now_s() - start) * 1e3;

  report.admitted = plane->admitted();
  report.delivered = plane->delivered();
  report.lost = plane->lost();
  report.inflight = plane->inflight();
  report.fate_fingerprint = plane->fate_fingerprint();
  report.chaos = campaign->outcome();
  return t;
}

void check_report(Run& run, Protocol& p, const FlowChaosReport& r) {
  const std::string tag = p.tag;
  run.expect(r.admitted == kFlows &&
                 r.admitted == r.delivered + r.lost + r.inflight,
             tag + ": admitted == delivered + lost + inflight");
  run.expect(r.chaos.tables_restored, tag + ": tables restored");
  run.expect(r.chaos.ground_truth_violations == 0,
             tag + ": no ground-truth violations");
  if (!p.fates) {
    p.fates = r.fate_fingerprint;
    std::printf("%s fates 0x%016llx lost %llu\n", p.tag,
                static_cast<unsigned long long>(r.fate_fingerprint),
                static_cast<unsigned long long>(r.lost));
  }
  run.expect(r.fate_fingerprint == *p.fates,
             tag + ": fate fingerprint repeats (traced == untraced)");
  if (run.default_seed()) {
    run.expect(r.fate_fingerprint == p.recorded.fates &&
                   r.lost == p.recorded.lost,
               tag + ": fate fingerprint and lost count equal the recorded");
  }
}

double median_of(const std::vector<TracedCampaign>& runs,
                 double TracedCampaign::*field) {
  std::vector<double> v;
  for (const TracedCampaign& t : runs) v.push_back(t.*field);
  return median(v);
}

}  // namespace

void run_flow_chaos(Run& run) {
  TreeSetup tree(4, 12, "<0,0,0>");
  run.setup([&] { tree(run); });
  const Topology& topo = tree.topo();
  run.input("tree", tree.describe());
  run.input("switches", std::to_string(topo.num_switches()));
  run.input("schedule", "chaos seed 7, 24 actions, default ChaosOptions");
  run.input("flows", std::to_string(kFlows) + " uniform, plane threads nproc");

  std::vector<Protocol> protocols(2);
  protocols[0].kind = ProtocolKind::kLsp;
  protocols[0].tag = "lsp";
  protocols[0].recorded = kLspRecorded;
  protocols[1].kind = ProtocolKind::kAnp;
  protocols[1].tag = "anp";
  protocols[1].recorded = kAnpRecorded;
  const FlowChaosOptions options = campaign_options(run.seed(), run.threads());
  std::vector<double> verify_ms;
  double rows_patched = 0, rows_escalated = 0, rows_full = 0;

  run.measure([&](bool traced) {
    double verify = 0.0;
    for (Protocol& p : protocols) {
      FlowChaosReport report;
      if (!traced) {
        const CallCost c = run.cost(
            [&] { report = aspen::run_flow_chaos(p.kind, topo, options); });
        p.campaign_s.push_back(c.wall_ms / 1e3);
        verify += run.cost([&] { check_report(run, p, report); }).wall_ms;
        continue;
      }
      p.traced.push_back(traced_campaign(run, p.kind, topo, options, report));
      verify += run.cost([&] { check_report(run, p, report); }).wall_ms;
      p.events += Run::counter("sim.events_dispatched");
      p.lsa_installs += Run::counter("lsp.lsa_installs");
      p.sent_total += Run::counter("channel.sent_total");
      p.messages += static_cast<double>(report.chaos.messages);
      p.retransmits += static_cast<double>(report.chaos.retransmits);
      p.acks += static_cast<double>(report.chaos.acks);
      p.checks += static_cast<double>(report.chaos.checks);
      p.checked_flows += static_cast<double>(report.chaos.checked_flows);
      rows_patched += Run::counter("routing.rows_patched");
      rows_escalated += Run::counter("routing.rows_escalated");
      rows_full += Run::incremental_full_rows(tree.routes().num_dests());
      Run::take_counters();
    }
    if (traced) verify_ms.push_back(verify);
  });

  FlowChaosOptions serial = options;
  serial.plane.threads = 1;
  run.single_threaded([&] {
    for (const Protocol& p : protocols) {
      const FlowChaosReport one = aspen::run_flow_chaos(p.kind, topo, serial);
      run.expect(one.fate_fingerprint == *p.fates,
                 std::string(p.tag) +
                     ": 1-thread fate fingerprint equals the nproc one");
    }
  });

  for (const Protocol& p : protocols) {
    run.figure(std::string(p.tag) + "_campaign_s", median(p.campaign_s), "s",
               p.campaign_s.size());
  }

  if (!run.traced()) return;
  const double passes = run.traced_passes();
  tree.report(run);
  run.layer("routing.rows_patched", rows_patched / passes);
  run.layer("routing.rows_escalated", rows_escalated / passes);
  run.layer("routing.rows_full", rows_full / passes);
  run.layer("routing.verify_ms", median(verify_ms));
  double admit_ms = 0, step_ms = 0, walked = 0;
  for (const Protocol& p : protocols) {
    const std::string s = std::string(".") + p.tag;
    const double total = median_of(p.traced, &TracedCampaign::total_ms);
    const double init = median_of(p.traced, &TracedCampaign::init_ms);
    const double advance = median_of(p.traced, &TracedCampaign::advance_ms);
    const double finish = median_of(p.traced, &TracedCampaign::finish_ms);
    const double admit = median_of(p.traced, &TracedCampaign::admit_ms);
    const double step = median_of(p.traced, &TracedCampaign::step_ms);
    std::vector<double> calls;
    for (const TracedCampaign& t : p.traced) {
      calls.insert(calls.end(), t.advance_calls_ms.begin(),
                   t.advance_calls_ms.end());
    }
    const double events = p.events / passes;
    run.layer("fault.campaign_ms" + s, total);
    run.layer("fault.campaign_init_ms" + s, init);
    run.layer("fault.advance_ms" + s, advance);
    run.layer("fault.advance_p50_ms" + s, median(calls));
    run.layer("fault.finish_ms" + s, finish);
    run.layer("fault.checks" + s, p.checks / passes);
    run.layer("fault.checked_flows" + s, p.checked_flows / passes);
    run.layer("fault.covered_pct" + s,
              (init + advance + finish + admit + step) / total * 100.0);
    run.layer("traffic.admit_ms" + s, admit);
    run.layer("traffic.step_ms" + s, step);
    run.layer("sim.events_dispatched" + s, events);
    // Upper bound: all of advance + finish charged to event dispatch.
    run.layer("sim.ns_per_event" + s,
              events > 0 ? (advance + finish) * 1e6 / events : 0.0);
    run.layer("proto.messages" + s, p.messages / passes);
    run.layer("proto.retransmits" + s, p.retransmits / passes);
    run.layer("proto.acks" + s, p.acks / passes);
    run.layer("proto.lsa_installs" + s, p.lsa_installs / passes);
    run.layer("channel.sent_total" + s, p.sent_total / passes);
    admit_ms += admit;
    step_ms += step;
    walked += static_cast<double>(p.traced.front().flows_walked);
  }
  run.layer("traffic.admit_ms", admit_ms);
  run.layer("traffic.step_ms", step_ms);
  run.layer("traffic.flows_walked", walked);
  run.layer("traffic.ns_per_flow", step_ms * 1e6 / walked);
}

}  // namespace perfbench
