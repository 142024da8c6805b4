#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
libhod sources from src/) into .bench_build/perfbench, runs one workload
and prints its result. Run it from the repository root:

    python3 perfbench/run.py --workload score_saturate --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is the JSON result with the keys
correct, attempted, failed and metrics. --trace 0 reports the gated
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
Build output goes to standard error. --smoke runs every workload in its
tiny configuration, traced and untraced, and checks that every metric is
printed with its unit and that every correctness check ran and passed.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

WORKLOADS = ["score_saturate", "fleet_dashboards", "plant_replay"]
# Checks each run performs (every run executes all three workloads: the
# selected one at full size, the other two as smaller legs).
EXPECTED_CHECKS = [
    "saturate.conservation.threaded",
    "saturate.conservation.inline",
    "saturate.alarms_threaded_eq_inline",
    "fleet.conservation.per_plant",
    "fleet.conservation.aggregate",
    "fleet.hub_identity.channels",
    "fleet.hub_identity.hubs",
    "fleet.final_views_eq_latest",
    "fleet.alarms_observed",
    "replay.conservation",
    "replay.escalated_findings_on_board",
    "replay.escalations_eq_cold_detector",
]
# Printed in every untraced run next to the gated metrics.
REPORTED_ONLY = ["failed_frac", "inline_sps", "view_age_p50_ms",
                 "view_age_p99_ms", "alarm_age_p50_ms", "alarm_age_p99_ms",
                 "rollup_p99_ms", "escalate_p90_ms"]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build(root):
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hodbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env,
        timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "hodbench")


def source_stamp(root):
    """Git SHA when the checkout is a repository; always a digest of the
    sources the benchmark builds, so a result names the code it measured."""
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (sha, digest.hexdigest()[:12])


def run_binary(binary, args):
    proc = subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def validate(lines, expected_units):
    """Parses the result line and checks its shape and metric names/units.
    Returns (result, problems)."""
    problems = []
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, ["last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return result, problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    metrics = result["metrics"]
    for name, unit in expected_units.items():
        if name not in metrics:
            problems.append("metric %s missing" % name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s unit %r, expected %r"
                            % (name, metrics[name].get("unit"), unit))
    for name in metrics:
        if name not in expected_units:
            problems.append("unexpected metric %s" % name)
    return result, problems


def smoke(root, binary, stamp):
    e2e_units, layer_units = load_spec(root)
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, lines, err = run_binary(
                binary, ["--workload", workload, "--seed", "1", "--seconds",
                         "1", "--trace", trace, "--smoke", "--git-sha", stamp])
            expected = layer_units if trace == "1" else e2e_units
            result, problems = validate(lines, expected)
            if code != 0:
                problems.append("exit code %d: %s" % (code, err.strip()))
            if result is not None and result.get("correct") is not True:
                problems.append("correct is not true")
            ran = {m.group(1): m.group(2) for m in
                   (re.match(r"check (\S+)\s+(ok|FAIL)", l) for l in lines)
                   if m}
            for check in EXPECTED_CHECKS:
                if ran.get(check) != "ok":
                    problems.append("check %s %s" % (check,
                                                     ran.get(check, "not run")))
            printed = {m.group(1): m.group(2) for m in
                       (re.match(r"metric (\S+)\s+\S+\s+(\S+)", l)
                        for l in lines) if m}
            names = dict(expected)
            if trace == "0":
                names.update({n: None for n in REPORTED_ONLY})
            for name, unit in names.items():
                if name not in printed:
                    problems.append("metric line for %s not printed" % name)
                elif unit is not None and printed[name] != unit:
                    problems.append("metric line for %s has unit %s"
                                    % (name, printed[name]))
            status = "ok" if not problems else "FAIL"
            print("smoke %-17s trace=%s %s: %d metrics, %d checks"
                  % (workload, trace, status, len(expected), len(ran)))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    print("smoke: %s" % ("all passed" if failures == 0
                         else "%d run(s) failed" % failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = os.getcwd()
    try:
        binary = build(root)
    except (OSError, subprocess.SubprocessError) as error:
        log("perfbench: build failed: %s" % error)
        return 2
    stamp = source_stamp(root)
    if args.smoke:
        return smoke(root, binary, stamp)

    e2e_units, layer_units = load_spec(root)
    try:
        code, lines, err = run_binary(
            binary, ["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", args.trace,
                     "--git-sha", stamp])
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    if err:
        sys.stderr.write(err)
    result, problems = validate(
        lines, layer_units if args.trace == "1" else e2e_units)
    for line in lines[:-1]:
        print(line)
    if result is None or problems:
        for problem in problems:
            log("perfbench: " + problem)
        return code or 4
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
