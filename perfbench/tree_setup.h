// The set-up every workload shares: generate the Aspen tree, build its
// topology, compute its converged up*/down* routes — each call timed, so
// the traced run can split setup_s into aspen.generate_ms, topo.build_ms
// and routing.compute_*.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/routing/fwd_table.h"
#include "src/topo/topology.h"

namespace perfbench {

class TreeSetup {
 public:
  TreeSetup(int levels, int ports, std::string ftv);

  /// One set-up; pass to Run::setup.  The first call's state is kept:
  /// later calls (the run's further set-up samples) build the same state
  /// again and drop it, so references to topo() and routes() stay valid.
  void operator()(Run& run);

  [[nodiscard]] const aspen::Topology& topo() const { return *topo_; }
  [[nodiscard]] const aspen::RoutingState& routes() const { return routes_; }
  /// "n=<levels> k=<ports> <ftv>".
  [[nodiscard]] std::string describe() const;

  /// Sets aspen.generate_ms, topo.build_ms and routing.compute_* (the
  /// set-up's own nproc compute) from the medians over every set-up.
  void report(Run& run) const;

 private:
  int levels_;
  int ports_;
  std::string ftv_;
  std::optional<aspen::Topology> topo_;
  aspen::RoutingState routes_;
  std::vector<double> generate_ms_;
  std::vector<double> build_ms_;
  std::vector<CallCost> compute_;
};

/// Sets `<prefix>_ms`, `_cpu_ms`, `_sys_ms`, `_minor_faults` and
/// `_parallel_eff` (CPU ÷ (wall × threads)) from the medians over `calls`.
void report_compute(Run& run, const std::string& prefix,
                    const std::vector<CallCost>& calls, int threads);

}  // namespace perfbench
