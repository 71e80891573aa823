#!/usr/bin/env python3
"""The repo benchmark: the real ppd daemon under three generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cold_streamed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

It builds ppd and the benchmark's load generator (pbench) from source into
$CARGO_TARGET_DIR (default .bench_build), builds the warm fixture once per
build, runs one workload, checks every answer, prints every metric with its
unit and, as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Everything it writes stays under the build
directory. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("cold_streamed", "warm_serve", "mixed_serve")
RUN_TIMEOUT_S = 170

# Units of the metrics that are printed but not gated.
REPORT_UNITS = {
    "cold_p50_s": "s", "cold_p75_s": "s", "cold_p90_s": "s", "cold_p90_beyond": "count", "cold_n": "count",
    "cold_rps": "req/s", "warm_p50_ms": "ms", "warm_p99_ms": "ms", "warm_n": "count",
    "warm_max_rps": "req/s", "rps": "req/s", "rss_mb": "MB", "fail_frac": "ratio",
    "host_steal_pct": "%",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    """Configure (once) and build the requested targets; output goes to a log."""
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    logpath = os.path.join(build_dir(), "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    with open(logpath, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                with open(logpath) as r:
                    sys.stderr.write("".join(r.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return out


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    files = []
    for top in ("src", "tools", "bench", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names]
    files.append(os.path.join(ROOT, "CMakeLists.txt"))
    return "src-sha256:" + digest(sorted(f for f in files if os.path.isfile(f)))


def run_pbench(args, timeout):
    """Run pbench in its own process group, so a timeout also stops its ppd."""
    p = subprocess.Popen(args, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("pbench did not finish within %d s" % timeout)


def fixture(out, pbench, nproc):
    """The warm working set, simulated once per build of ppd + pbench."""
    path = os.path.join(build_dir(), "fixture")
    stamp = digest([os.path.join(out, "pp", "ppd"), pbench])
    stamp_file = os.path.join(path, "binaries")
    if not (os.path.exists(stamp_file) and open(stamp_file).read() == stamp):
        shutil.rmtree(path, ignore_errors=True)
        if run_pbench([pbench, "fixture", "--dir", path, "--threads", str(nproc)], 600) != 0:
            fail("building the warm fixture failed")
        with open(stamp_file, "w") as f:
            f.write(stamp)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests, then exit")
    a = ap.parse_args()

    if a.selftest:
        out = build(["pbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "pbench_selftest")]).returncode)
    if a.workload is None:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = build(["ppd", "pbench"])
    pbench = os.path.join(out, "pbench")
    nproc = len(os.sched_getaffinity(0))
    fix = fixture(out, pbench, nproc) if a.workload != "cold_streamed" else ""

    run_dir = os.path.join(build_dir(), "runs", "%s-%d-%d" % (a.workload, a.seed, a.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    meta = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            "nproc": nproc, "scale": "quick", "SWEEP_THREADS": nproc,
            "ppd": "workers=2 max_queue=8", "revision": revision()}
    with open(os.path.join(run_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    result_path = os.path.join(run_dir, "result.json")
    rc = run_pbench([pbench, "run", "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace),
                     "--threads", str(nproc), "--ppd", os.path.join(out, "pp", "ppd"),
                     "--dir", run_dir, "--fixture", fix, "--out", result_path], RUN_TIMEOUT_S)
    if not os.path.exists(result_path):
        fail("pbench exited %d without a result" % rc)
    with open(result_path) as f:
        res = json.load(f)

    group = "per_layer" if a.trace else "end_to_end"
    source = res["layers"] if a.trace else res["e2e"]
    metrics = {}
    for m in bench[group]:
        if m["name"] not in source:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}

    print("run: " + json.dumps(meta))
    for name, m in metrics.items():
        print("%-36s %16.6f %s" % (name, m["value"], m["unit"]))
    for name, v in sorted(res["report"].items()):
        unit = REPORT_UNITS.get(name, "ms" if name.endswith("_ms") else "")
        print("%-36s %16.6f %s" % ("report." + name, v, unit))
    for v in res["violations"]:
        print("CHECK FAILED: " + v)
    correct = bool(res["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
