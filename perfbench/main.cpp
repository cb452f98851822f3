// aspen_perfbench — the repository benchmark.
//
//   aspen_perfbench --workload <fabric|flow-chaos|serve|survive|all>
//                   [--seed N] [--seconds S] [--trace 0|1]
//
// Each workload is a closed, single-caller batch: this process calls the
// library and reports the work it finished per pass at a stated input
// size.  Every parallel call uses exactly `nproc` workers (the CPUs this
// process may run on).  The last stdout line is the JSON result; `all`
// runs the four workloads in turn in this one process (peak RSS is then
// the process-wide high-water mark).  Exit status: 0 when every
// correctness check passed, 1 when one failed, 64 on a usage error.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/harness.h"
#include "src/util/parallel.h"

namespace {

using perfbench::Config;

int usage(const char* why) {
  std::fprintf(stderr,
               "aspen_perfbench: %s\n"
               "usage: aspen_perfbench --workload <name|all> [--seed N] "
               "[--seconds S] [--trace 0|1]\n",
               why);
  return 64;
}

/// CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

int run_one(const perfbench::Workload& workload, Config config) {
  config.workload = workload.name;
  perfbench::Run run(config, workload.default_seed);
  std::printf("workload %s\n", workload.name);
  workload.run(run);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, number)) return usage("--seed needs an integer");
      config.seed = number;
      config.seed_given = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 600) {
        return usage("--seconds needs an integer in [1, 600]");
      }
      config.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace needs 0 or 1");
      }
      config.trace = value[0] == '1';
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty()) return usage("--workload is required");

  // The pool size is process-global and the serve driver reads it, so it is
  // pinned once here rather than left to ASPEN_THREADS or the hardware.
  config.threads = nproc();
  aspen::parallel::set_num_threads(config.threads);

  try {
    int status = 0;
    bool found = false;
    for (const perfbench::Workload& w : perfbench::workloads()) {
      if (workload != "all" && workload != w.name) continue;
      found = true;
      const int rc = run_one(w, config);
      if (rc != 0) status = rc;
    }
    if (!found) return usage(("unknown workload " + workload).c_str());
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aspen_perfbench: %s\n", e.what());
    return 2;
  }
}
