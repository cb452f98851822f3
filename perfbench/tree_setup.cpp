#include "perfbench/tree_setup.h"

#include <utility>

#include "src/aspen/generator.h"
#include "src/routing/updown.h"
#include "src/topo/link_state.h"

namespace perfbench {

using namespace aspen;

TreeSetup::TreeSetup(int levels, int ports, std::string ftv)
    : levels_(levels), ports_(ports), ftv_(std::move(ftv)) {}

void TreeSetup::operator()(Run& run) {
  TreeParams params;
  generate_ms_.push_back(run.cost([&] {
    params = generate_tree(levels_, ports_, FaultToleranceVector::parse(ftv_));
  }).wall_ms);
  std::optional<Topology> topo;
  build_ms_.push_back(run.cost([&] {
    topo.emplace(Topology::build(params));
  }).wall_ms);
  const LinkStateOverlay intact(*topo);
  RoutingState routes;
  compute_.push_back(run.cost([&] {
    routes = compute_updown_routes(*topo, intact, DestGranularity::kEdge,
                                   run.threads());
  }));
  if (!topo_) {
    topo_ = std::move(topo);
    routes_ = std::move(routes);
  }
}

std::string TreeSetup::describe() const {
  return "n=" + std::to_string(levels_) + " k=" + std::to_string(ports_) +
         " " + ftv_;
}

void TreeSetup::report(Run& run) const {
  run.layer("aspen.generate_ms", median(generate_ms_));
  run.layer("topo.build_ms", median(build_ms_));
  report_compute(run, "routing.compute", compute_, run.threads());
}

void report_compute(Run& run, const std::string& prefix,
                    const std::vector<CallCost>& calls, int threads) {
  std::vector<double> wall, cpu, sys, faults, eff;
  for (const CallCost& c : calls) {
    wall.push_back(c.wall_ms);
    cpu.push_back(c.cpu_ms);
    sys.push_back(c.sys_ms);
    faults.push_back(c.minor_faults);
    eff.push_back(c.cpu_ms / (c.wall_ms * threads));
  }
  run.layer(prefix + "_ms", median(wall));
  run.layer(prefix + "_cpu_ms", median(cpu));
  run.layer(prefix + "_sys_ms", median(sys));
  run.layer(prefix + "_minor_faults", median(faults));
  run.layer(prefix + "_parallel_eff", median(eff));
}

}  // namespace perfbench
