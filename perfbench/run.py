#!/usr/bin/env python3
"""Build and run the EnviroTrack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_field --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --serve-sweep 300,360,420 --seconds 5

The first form builds perfbench/ (a package of its own, release profile,
offline) into $CARGO_TARGET_DIR (default .bench_build), runs one workload and
prints a report line followed by the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
--seed also takes "default" and "held-out".

--self-test runs every workload at a tiny size, checks that each metric in
BENCHMARK.json is emitted with its unit and that every run passes its
checks, and checks that planted failures (a failing invariant, a wrong
SUBACK id) raise the failed count.

--serve-sweep runs the serve_fanout load once per SUBSCRIBE rate, for
--seconds each, and prints one line per rate.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "envirotrack-perfbench")


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for base in ("crates", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository this checkout is, or None when it is not one."""
    top = capture(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return capture(["git", "-C", ROOT, "rev-parse", "HEAD"])


def host_info():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": capture(["rustc", "-V"]),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def run_binary(binary, argv):
    """Runs the binary; returns (report dict, result dict) or exits."""
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit("perfbench: benchmark printed no result")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def bench(args):
    binary = build()
    argv = ["--workload", args.workload, "--seed", args.seed, "--seconds", str(args.seconds),
            "--trace", args.trace]
    report, result = run_binary(binary, argv)
    report["host"] = host_info()
    if report.get("digest"):
        want = expected_digest(args.workload, report["seed"])
        report["digest_changed"] = None if want is None else want != report["digest"]
    print(json.dumps({"report": report}))
    print(json.dumps(result))


def check_result(what, result, spec, failures):
    if list(result) != RESULT_KEYS:
        failures.append(f"{what}: result keys {list(result)}")
        return
    names = [(m["name"], m["unit"]) for m in spec]
    got = [(n, v.get("unit")) for n, v in result["metrics"].items()]
    if got != names:
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        failures.append(f"{what}: metrics differ from BENCHMARK.json (missing {missing}, extra {extra})")
    for n, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            failures.append(f"{what}: {n} is not a finite number")


def self_test():
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = f"{name} --trace {trace}"
            before = len(failures)
            report, result = run_binary(binary, ["--workload", name, "--size", "tiny", "--seconds", "1",
                                                 "--trace", trace])
            check_result(what, result, metrics, failures)
            if result.get("attempted", 0) < 1:
                failures.append(f"{what}: attempted nothing")
            if trace == "0":
                zero = [n for n, v in result["metrics"].items() if v["value"] <= 0]
                if zero:
                    failures.append(f"{what}: end-to-end metrics not positive: {zero}")
            if not result.get("correct") or result.get("failed") != 0:
                failures.append(f"{what}: the program failed checks: {report.get('problems')}")
            print(f"self-test: {what}: {'ok' if len(failures) == before else 'FAILED'}", file=sys.stderr)
    # Each planted failure runs against a run checked clean above. The
    # serve load runs only in sparse_field's traced run.
    for name, trace, fault in (("sparse_field", "0", "invariant"), ("sparse_field", "1", "suback-id")):
        what = f"{name} --trace {trace} --inject-fault {fault}"
        _, result = run_binary(binary, ["--workload", name, "--size", "tiny", "--seconds", "1",
                                        "--trace", trace, "--inject-fault", fault])
        if result["correct"] or result["failed"] == 0:
            failures.append(f"{what}: the planted failure was not counted: {result}")
        else:
            frac = result["failed"] / result["attempted"]
            print(f"self-test: {what}: failed_frac {frac:.3f}", file=sys.stderr)
    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    sys.exit(1 if failures else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", default="default")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--serve-sweep", metavar="RATES")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.serve_sweep:
        binary = build()
        sys.exit(subprocess.run([binary, "--serve-sweep", args.serve_sweep, "--seed", args.seed,
                                 "--seconds", str(args.seconds)], timeout=RUN_TIMEOUT_S).returncode)
    elif not args.workload:
        p.error("--workload is required")
    else:
        bench(args)


if __name__ == "__main__":
    main()
