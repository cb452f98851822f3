#include "perfbench/harness.h"

#include <cstdio>
#include <stdexcept>
#include <thread>

#include "src/obs/obs.h"
#include "src/util/contracts.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Shorthands for the `moves` column.
constexpr const char* kSetupAll = "setup_s on every workload";
constexpr const char* kFullFabric =
    "batch_s (full_recompute_ms_p50) on fabric; setup_s on every workload";
constexpr const char* kSerialFabric =
    "batch_s (full_recompute_serial_ms_p50) on fabric";
constexpr const char* kIncremental =
    "batch_s (incremental_ms_p50/p90) on fabric";
constexpr const char* kRows =
    "batch_s (incremental_ms_p50/p90) on fabric; batch_s (lsp_campaign_s) "
    "on flow-chaos";
constexpr const char* kTraffic =
    "batch_s (flows_per_s) on fabric; batch_s (anp_campaign_s) on "
    "flow-chaos";
constexpr const char* kLsp = "batch_s (lsp_campaign_s) on flow-chaos";
constexpr const char* kAnp = "batch_s (anp_campaign_s) on flow-chaos";
constexpr const char* kDesLsp =
    "batch_s (lsp_campaign_s) on flow-chaos";
constexpr const char* kDesAnp =
    "barely batch_s (anp_campaign_s) on flow-chaos: the DES bypass";
constexpr const char* kServe = "batch_s (queries_per_s) on serve";
constexpr const char* kSurvive = "batch_s (samples_per_s) on survive";

}  // namespace

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", ""},
      {"batch_s", "s", ""},
      {"peak_rss_mb", "MB", ""},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"aspen.generate_ms", "ms", kSetupAll},
      {"topo.build_ms", "ms", kSetupAll},
      {"routing.compute_ms", "ms", kFullFabric},
      {"routing.compute_cpu_ms", "ms", kFullFabric},
      {"routing.compute_sys_ms", "ms", kFullFabric},
      {"routing.compute_minor_faults", "count", kFullFabric},
      {"routing.compute_parallel_eff", "ratio", kFullFabric},
      {"routing.compute_t1_ms", "ms", kSerialFabric},
      {"routing.compute_t1_cpu_ms", "ms", kSerialFabric},
      {"routing.compute_t1_sys_ms", "ms", kSerialFabric},
      {"routing.compute_t1_minor_faults", "count", kSerialFabric},
      {"routing.compute_t1_parallel_eff", "ratio", kSerialFabric},
      {"routing.recompute_ms", "ms", kIncremental},
      {"routing.recompute_tail_ms", "ms", kIncremental},
      {"routing.recompute_tail_pct", "pct", kIncremental},
      {"routing.recompute_samples", "count", kIncremental},
      {"routing.rows_patched", "count", kRows},
      {"routing.rows_escalated", "count", kRows},
      {"routing.rows_full", "count", kRows},
      {"routing.patched_switches", "count", kIncremental},
      {"routing.untouched_ratio", "ratio", kIncremental},
      {"routing.verify_ms", "ms",
       "nothing: the benchmark's own checks, kept out of engine time"},
      {"traffic.admit_ms", "ms", kTraffic},
      {"traffic.step_ms", "ms", kTraffic},
      {"traffic.flows_walked", "count", kTraffic},
      {"traffic.ns_per_flow", "ns", kTraffic},
      {"fault.campaign_ms.lsp", "ms", kLsp},
      {"fault.campaign_init_ms.lsp", "ms", kLsp},
      {"fault.advance_ms.lsp", "ms", kLsp},
      {"fault.advance_p50_ms.lsp", "ms", kLsp},
      {"fault.finish_ms.lsp", "ms", kLsp},
      {"fault.checks.lsp", "count", kLsp},
      {"fault.checked_flows.lsp", "count", kLsp},
      {"fault.covered_pct.lsp", "pct", kLsp},
      {"traffic.admit_ms.lsp", "ms", kLsp},
      {"traffic.step_ms.lsp", "ms", kLsp},
      {"sim.events_dispatched.lsp", "count", kDesLsp},
      {"sim.ns_per_event.lsp", "ns", kDesLsp},
      {"proto.messages.lsp", "count", kDesLsp},
      {"proto.retransmits.lsp", "count", kDesLsp},
      {"proto.acks.lsp", "count", kDesLsp},
      {"proto.lsa_installs.lsp", "count", kDesLsp},
      {"channel.sent_total.lsp", "count", kDesLsp},
      {"fault.campaign_ms.anp", "ms", kAnp},
      {"fault.campaign_init_ms.anp", "ms", kAnp},
      {"fault.advance_ms.anp", "ms", kAnp},
      {"fault.advance_p50_ms.anp", "ms", kAnp},
      {"fault.finish_ms.anp", "ms", kAnp},
      {"fault.checks.anp", "count", kAnp},
      {"fault.checked_flows.anp", "count", kAnp},
      {"fault.covered_pct.anp", "pct", kAnp},
      {"traffic.admit_ms.anp", "ms", kAnp},
      {"traffic.step_ms.anp", "ms", kAnp},
      {"sim.events_dispatched.anp", "count", kDesAnp},
      {"sim.ns_per_event.anp", "ns", kDesAnp},
      {"proto.messages.anp", "count", kDesAnp},
      {"proto.retransmits.anp", "count", kDesAnp},
      {"proto.acks.anp", "count", kDesAnp},
      {"proto.lsa_installs.anp", "count", kDesAnp},
      {"channel.sent_total.anp", "count", kDesAnp},
      {"serve.run_ms", "ms", kServe},
      {"serve.cache_hit_ratio", "ratio", kServe},
      {"serve.cache_lookups", "count", kServe},
      {"serve.seals", "count", kServe},
      {"serve.checkpoints", "count", kServe},
      {"serve.retransmits", "count", kServe},
      {"serve.duplicate_replays", "count", kServe},
      {"serve.coalesced", "count", kServe},
      {"serve.audited", "count", kServe},
      {"analysis.survive_ms", "ms", kSurvive},
      {"analysis.cpu_ms", "ms", kSurvive},
      {"analysis.steps", "count", kSurvive},
      {"analysis.us_per_step", "us", kSurvive},
      {"analysis.incremental_full_rows", "count", kSurvive},
      {"analysis.incremental_patched_switches", "count", kSurvive},
      {"analysis.rollback_rebuilds", "count", kSurvive},
      {"analysis.audits_run", "count", kSurvive},
      {"analysis.quarantined", "count", kSurvive},
      {"obs.trace_overhead_pct", "pct",
       "nothing: traced vs untraced pass wall time, per workload"},
  };
  return defs;
}

const std::vector<Workload>& workloads() {
  // Default seeds are the recorded ones: fabric and survive draw their
  // churn / samples from seed 1, flow-chaos its flows from seed 7 (its
  // schedule is always chaos seed 7), serve its schedule, queries and
  // clients from chaos seed 17.
  static const std::vector<Workload> all = {
      {"fabric", 1, &run_fabric},
      {"flow-chaos", 7, &run_flow_chaos},
      {"serve", 17, &run_serve},
      {"survive", 1, &run_survive},
  };
  return all;
}

Run::Run(const Config& config, std::uint64_t default_seed)
    : config_(config),
      default_seed_(default_seed),
      seed_(config.seed_given ? config.seed : default_seed) {
  for (const MetricDef& def : per_layer_defs()) layers_[def.name] = 0.0;
}

void Run::figure(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  char line[256];
  std::snprintf(line, sizeof line, "figure %-32s %14.6g %-6s (n=%zu)",
                name.c_str(), value, unit.c_str(), samples);
  figure_lines_.emplace_back(line);
}

void Run::figure_tail(const std::string& stem,
                      const std::vector<double>& samples,
                      const std::string& unit) {
  figure(stem + "_p50", median(samples), unit, samples.size());
  const Tail tail = tail_percentile(samples);
  char name[128];
  std::snprintf(name, sizeof name, "%s_p%g", stem.c_str(), tail.pct);
  figure(tail.qualified ? name : stem + "_p50(tail-unqualified)", tail.value,
         unit, tail.samples);
}

void Run::layer(const std::string& name, double value) {
  const auto it = layers_.find(name);
  if (it == layers_.end()) {
    throw std::logic_error("per-layer metric not in the table: " + name);
  }
  it->second = value;
}

void Run::input(const std::string& key, const std::string& value) {
  inputs_.emplace_back(key, value);
}

double Run::counter(const char* name) {
  return static_cast<double>(aspen::obs::metrics().counter(name));
}

double Run::incremental_full_rows(std::uint64_t num_dests) {
  return counter("routing.rows_full_recompute") -
         counter("routing.full_recomputes") * static_cast<double>(num_dests);
}

void Run::take_counters() { aspen::obs::reset_collected(); }

void Run::set_obs(bool on) {
  aspen::obs::ObsConfig obs_config;
  obs_config.metrics = on;
  obs_config.trace = on;
  aspen::obs::configure(obs_config);
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Run::print_envelope() const {
  const auto audit_runtime = aspen::contracts::audit_level();
  std::string line = "envelope {";
  line += "\"workload\": " + json_string(config_.workload);
  line += ", \"seed\": " + std::to_string(seed_);
  line += std::string(", \"default_seed\": ") +
          (default_seed() ? "true" : "false");
  line += ", \"seconds\": " + json_number(config_.seconds);
  line += std::string(", \"trace\": ") + (config_.trace ? "1" : "0");
  line += ", \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency());
  line += ", \"threads\": " + std::to_string(config_.threads);
  line += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  line += ", \"audit_level_compiled\": " + std::to_string(ASPEN_AUDIT_LEVEL);
  line += ", \"audit_level_runtime\": " +
          json_string(aspen::contracts::to_cstring(audit_runtime));
  line += ", \"inputs\": {";
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(inputs_[i].first) + ": " +
            json_string(inputs_[i].second);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Run::finish() {
  print_envelope();
  std::printf("passes untraced=%zu traced=%zu setups=%llu in %zu samples\n",
              batches_.size(), traced_batches_.size(),
              static_cast<unsigned long long>(setup_calls_), setup_s_.size());
  for (const auto* phase : {&batches_, &traced_batches_}) {
    std::string line = phase == &batches_ ? "batch_s untraced" : "batch_s traced";
    for (const double b : *phase) line += " " + std::to_string(b);
    std::printf("%s\n", line.c_str());
  }
  const double peak_rss_mb = usage_now().max_rss_kb / 1024.0;
  figure("setup_s", median(setup_s_), "s", setup_s_.size());
  figure("peak_rss_mb", peak_rss_mb, "MB", 1);
  figure("failed_share", checks_.failed_share(), "ratio",
         checks_.attempted());
  for (const std::string& line : figure_lines_) {
    std::printf("%s\n", line.c_str());
  }

  std::map<std::string, double> metrics;
  if (config_.trace) {
    if (!batches_.empty() && !traced_batches_.empty()) {
      layer("obs.trace_overhead_pct",
            (mean(traced_batches_) / mean(batches_) - 1.0) * 100.0);
    }
    for (const MetricDef& def : per_layer_defs()) {
      std::printf("layer %-40s %16.6g %-5s moves %s\n", def.name,
                  layers_.at(def.name), def.unit, def.moves);
    }
    metrics = layers_;
  } else {
    metrics["setup_s"] = median(setup_s_);
    metrics["batch_s"] = mean(batches_);
    metrics["peak_rss_mb"] = peak_rss_mb;
  }

  for (const std::string& failure : checks_.failures()) {
    std::printf("FAILED check: %s\n", failure.c_str());
  }
  std::printf("checks attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(checks_.attempted()),
              static_cast<unsigned long long>(checks_.failed()));

  const std::vector<MetricDef>& defs =
      config_.trace ? per_layer_defs() : end_to_end_defs();
  std::string json = "{\"correct\": ";
  json += checks_.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks_.attempted());
  json += ", \"failed\": " + std::to_string(checks_.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(defs[i].name) + ": {\"value\": " +
            json_number(metrics.at(defs[i].name)) +
            ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks_.correct() ? 0 : 1;
}

}  // namespace perfbench
