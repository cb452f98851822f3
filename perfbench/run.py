#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout: the script builds perfbench/ (a CMake
package that pulls in the repository's libraries) into .bench_build at the
checkout root, or into $CARGO_TARGET_DIR when that is set, then runs
aspen_perfbench and passes its output through.  The last stdout line is the
JSON result; this script checks that its metric names and units are exactly
the ones BENCHMARK.json lists for the mode.  Exit status: the benchmark's
own (0 when every correctness check passed), 2 when the build fails or the
repository sources are missing, 3 when the result breaks the contract.
See perfbench/DESIGN.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"repository sources not found under {ROOT}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench_build.log"
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", *targets])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(2, f"build step {step[:2]} failed: {err}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(2, f"build failed (log: {log_path})")
    return build_dir


def check_result(line, spec, traced):
    """Returns a list of contract problems with the final JSON line."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last stdout line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    defs = spec["per_layer" if traced else "end_to_end"]
    want = {d["name"]: d["unit"] for d in defs}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, extra {extra}, unit mismatch {units}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build(["perfbench_selftest"])
        sys.exit(subprocess.run([str(build_dir / "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    build_dir = build(["aspen_perfbench"])
    command = [str(build_dir / "aspen_perfbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if args.workload != "all":
        problems = check_result(lines[-1] if lines else "", spec,
                                args.trace == 1)
        if problems:
            fail(3, "; ".join(problems))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
