#!/usr/bin/env python3
"""The repository benchmark: one command per workload, run from the root
of a checkout.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --steady N --workload NAME [--seconds S] [--seed-base B]

The first form builds the perfbench binary (perfbench/CMakeLists.txt, Release, in
.bench_build/), runs the workload in fresh processes and prints a table
followed, as the last line of stdout, by one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, taken from a traced run folded by perfbench/fold.py.

--selftest checks every hand-written reference against psc's tree-walk
tier at small sizes. --steady runs a workload N times with consecutive
seeds and reports each end-to-end metric's median and interquartile
spread against its bound (the data behind the bounds in BENCHMARK.json).

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import fold  # noqa: E402  (perfbench/fold.py, next to this file)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Measuring processes per run. Each sets up on its own and measures
# 1/PROCESSES of --seconds. On a shared host, contention from other
# tenants comes in episodes of seconds to minutes that slow a process
# two- to four-fold, so instance_ms_p50 is the lowest of the processes'
# medians: the program's speed when the host lets it run. The other
# figures are medians over the processes (counts are summed). See
# README, "Bounds and measured spread".
PROCESSES = 10
# Every run must end within 180 s; leave room for the process teardown.
DEADLINE_S = 170.0
START = time.monotonic()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_child(cmd, timeout, env=None):
    """Run `cmd` in its own process group; kill the whole group (cc
    children included) if it outlives `timeout`. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"timed out: {' '.join(cmd)}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def remaining(first_build=False):
    budget = 880.0 if first_build else DEADLINE_S
    return budget - (time.monotonic() - START)


def build():
    """Configure (once) and build the binary; the first build of a
    checkout compiles the whole library and may take minutes."""
    # Until the binary exists, (re)configure: a failed configure leaves a
    # cache behind but no build files.
    first = not os.path.exists(BINARY)
    if first:
        code, out = run_child(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=Release"], remaining(True))
        log(out)
        if code != 0:
            raise RuntimeError("cmake configure failed")
    code, out = run_child(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"],
                          remaining(first))
    if code != 0:
        log(out)
        raise RuntimeError("build failed")
    if first:
        # The build's own time is not the run's: restart the 180 s clock.
        global START
        START = time.monotonic()


def run_binary(args, tmp, timeout=None):
    env = dict(os.environ, TMPDIR=tmp)
    code, out = run_child([BINARY] + args + ["--tmp", tmp], timeout or remaining(), env)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {code}: {' '.join(args)}")
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6g} {unit}")


def combine(parts):
    """One result from the measuring processes of a run: the lowest of
    their instance_ms_p50 figures, the median of every other figure,
    counts summed, and the 90th percentile over all of their instances."""
    counts = ("samples", "requests")
    res = {"correct": all(r["correct"] for r in parts),
           "attempted": sum(r["attempted"] for r in parts),
           "failed": sum(r["failed"] for r in parts),
           "errors": [e for r in parts for e in r.get("errors", [])],
           "env": parts[0].get("env", {}), "metrics": {}}
    for k in parts[0]["metrics"]:
        values = [r["metrics"][k] for r in parts]
        res["metrics"][k] = sum(values) if k in counts else statistics.median(values)
    res["metrics"]["instance_ms_p50"] = min(r["metrics"]["instance_ms_p50"] for r in parts)
    instances = [t for r in parts for t in r["instances_ms"]]
    res["metrics"]["instance_ms_p90"] = statistics.quantiles(instances, n=10)[-1]
    log("per process: " + "; ".join(
        f"setup_s {r['metrics']['setup_s']:.6f} instance_ms_p50 "
        f"{r['metrics']['instance_ms_p50']:.4f}" for r in parts))
    return res


def measure(a, tmp):
    spec = load_spec()
    base = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.trace:
        trace_file = os.path.join(ROOT, ".bench_build", f"trace-{a.workload}.json")
        res = run_binary(base + ["--trace", "1", "--trace-file", trace_file], tmp)
        table, folded = fold.fold(fold.load(trace_file))
        print(fold.format_table(table))
        print()
        for k, v in folded.items():
            res["metrics"].setdefault(k, v)
        # The measured layer numbers beside the trace, for fold.py alone.
        with open(trace_file + ".layers.json", "w") as f:
            json.dump(res["metrics"], f, indent=1, sort_keys=True)
        wanted = spec["per_layer"]
    else:
        part = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds / PROCESSES)]
        res = combine([run_binary(part, tmp) for _ in range(PROCESSES)])
        wanted = spec["end_to_end"]

    env = res.get("env", {})
    print(f"workload {a.workload}  seed {a.seed}  nproc {env.get('nproc')}  "
          f"build {env.get('build_type')}  cc {env.get('cc_version')}")
    for e in res.get("errors", []):
        print(f"  error: {e}")
    m = res["metrics"]
    extra = [(k, m[k], unit) for k, unit in (
        ("instance_ms_p90", "ms"), ("samples", "count"), ("requests", "count"),
        ("hit_ms_p50", "ms"), ("miss_ms_p50", "ms"), ("request_ms_p99", "ms")) if k in m]
    extra.append(("failed_ratio", res["failed"] / max(1, res["attempted"]), "ratio"))
    metrics = {}
    rows = []
    for spec_metric in wanted:
        name, unit = spec_metric["name"], spec_metric["unit"]
        # A layer this workload does not exercise reads 0.
        value = float(m.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        rows.append((name, value, unit))
    print_table("metrics:", rows + extra)
    return {"correct": bool(res["correct"]) and res["failed"] == 0,
            "attempted": int(res["attempted"]), "failed": int(res["failed"]),
            "metrics": metrics}


def steady(a):
    """Run the workload N times (fresh seeds) and report each end-to-end
    metric's median, quartiles and spread = (Q3 - Q1) / median."""
    spec = load_spec()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    bad = 0
    for i in range(a.steady):
        seed = a.seed_base + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        bad += (not res["correct"]) or res["failed"] > 0
        for k in values:
            values[k].append(res["metrics"][k]["value"])
        log(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()))
    summary = {}
    print(f"{a.workload}: {a.steady} runs, {bad} with failures")
    print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        summary[m["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "values": v}
        flag = "" if spread < m["bound"] / 3 else "  (above bound/3)"
        print(f"  {m['name']:<16} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{m['bound']:>7.2f}{flag}")
    print(json.dumps({"workload": a.workload, "runs": a.steady, "runs_with_failures": bad,
                      "metrics": summary}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--steady", type=int, default=0)
    p.add_argument("--seed-base", type=int, default=1)
    a = p.parse_args()

    if a.steady:
        return steady(a)
    names = [w["name"] for w in load_spec()["workloads"]]
    if not a.selftest and a.workload not in names:
        log(f"unknown workload {a.workload!r}; one of {', '.join(names)}")
        return 2
    try:
        build()
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1
    if a.selftest:
        code, out = run_child([BINARY, "--mode", "selftest"], remaining())
        print(out, end="")
        return code
    # A private scratch directory per run: TMPDIR for the native tier's
    # cc scratch files, the daemon's socket and cache. Removed on every
    # exit path.
    tmp = os.path.join(ROOT, ".bench_build", "tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        result = measure(a, tmp)
    except (RuntimeError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
