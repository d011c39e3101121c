"""normcert benchmark: closed-loop CLI request streams, end to end and per layer.

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, untraced

Each pass runs in a fresh interpreter (``child.py``), so process-global
caches start cold and fill in the same pattern on every commit.  Passes
repeat until ``--seconds`` have gone by and the latency sample is large
enough for p90.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_TAIL = 10  # samples a percentile needs beyond it
MAX_WALL_S = 150.0  # stop adding passes here, well inside a 180 s run limit
CAL_REFERENCE_S = 0.012  # calibration loop time that defines reference speed

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than 10 samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL:
        raise ValueError(f"p{q * 100:g} of {n} samples has {n - rank} beyond it, "
                         f"needs {MIN_TAIL}")
    return sorted(values)[rank - 1]


def min_samples(q: float) -> int:
    n = MIN_TAIL
    while n - max(1, math.ceil(q * n)) < MIN_TAIL:
        n += 1
    return n


def scaled_latencies(p: dict) -> list[float]:
    """Request times scaled to reference host speed.

    Host speed drifts by tens of percent over minutes on a shared machine.
    Each request is preceded by a fixed calibration loop; a request's time
    is multiplied by ``CAL_REFERENCE_S`` over the median calibration time of
    the nine requests around it, which cancels the drift common to both.
    """
    cal = p["calibration"]
    return [x * CAL_REFERENCE_S / statistics.median(cal[max(0, i - 4):i + 5])
            for i, x in enumerate(p["latencies"])]


def throughput(p: dict) -> float:
    return len(p["latencies"]) / sum(scaled_latencies(p))


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """One child pass; adds ``setup_s``, from process start to its ready line."""
    workdir = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "1" if trace else "0", workdir]
    start = time.perf_counter()
    try:
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=env) as proc:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"pass of {workload} exited with {proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run passes and aggregate them into metrics for one workload."""
    began = time.perf_counter()
    plain, traced = [], []
    need = 1 if trace else min_samples(0.9)
    while True:
        elapsed = time.perf_counter() - began
        samples = sum(len(p["latencies"]) for p in plain)
        if plain and (traced or not trace) and (
                elapsed > MAX_WALL_S or (elapsed >= seconds and samples >= need)):
            break
        if trace and len(traced) < len(plain):
            traced.append(run_pass(workload, seed, True))
        else:
            plain.append(run_pass(workload, seed, False))

    latencies = [x for p in plain for x in p["latencies"]]
    scaled = [x for p in plain for x in scaled_latencies(p)]
    attempted = len(latencies)
    failures = [f for p in plain + traced for f in p["failures"]]
    report = {"attempted": attempted + sum(len(p["latencies"]) for p in traced),
              "failed": len(failures), "failures": failures,
              "passes": len(plain), "traced_passes": len(traced), "samples": attempted}
    if trace:
        plain_rps = statistics.median(throughput(p) for p in plain)
        traced_rps = statistics.median(throughput(p) for p in traced)
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_rps"] = plain_rps - traced_rps
        layers["trace.overhead_ratio"] = (plain_rps - traced_rps) / plain_rps
        report["metrics"] = layers
        return report
    report["metrics"] = {
        "setup_s": statistics.median(
            p["setup_s"] * CAL_REFERENCE_S / statistics.median(p["calibration"]) for p in plain),
        "throughput_rps": attempted / sum(scaled),
        "latency_p50_s": percentile(scaled, 0.5),
        "latency_p90_s": percentile(scaled, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "success_ratio": 1 - len(failures) / attempted,
    }
    report["unscaled"] = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "throughput_rps": attempted / sum(latencies),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
    }
    report["failed_ratio"] = len(failures) / attempted
    return report


def commit() -> str:
    """HEAD of a git checkout in the repository root, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in spans.LAYER_METRICS:
        return spans.LAYER_METRICS[name][0]
    return "1/s" if name.endswith("_rps") else "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "normcert", "__init__.py")):
        print(f"error: no normcert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# seed: {args.seed}")
    print(f"# python: {platform.python_version()}")
    print(f"# nproc: {os.cpu_count()}")
    print(f"# commit: {commit()}")
    print("# loop: closed, one client, one process per pass")
    reports = {}
    for name in names:
        print(f"# workload {name}: {workloads.WHY[name]}")
        try:
            rep = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        reports[name] = rep
        print(f"{name}: {rep['samples']} requests in {rep['passes']} passes"
              f" ({rep['traced_passes']} traced), {rep['failed']} failed")
        if "failed_ratio" in rep:
            print(f"  failed_ratio {rep['failed_ratio']:.6g} ratio (n={rep['samples']})")
        for metric, value in rep["metrics"].items():
            n = rep["traced_passes"] if args.trace else (
                rep["passes"] if metric in ("setup_s", "peak_rss_mb") else rep["samples"])
            print(f"  {metric} {value:.6g} {unit_of(metric)} (n={n})")
        for metric, value in rep.get("unscaled", {}).items():
            print(f"  unscaled {metric} {value:.6g} {unit_of(metric)}")
        for failure in rep["failures"][:20]:
            print(f"  FAILED {failure}")

    if len(names) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, rep in reports.items() for m, v in rep["metrics"].items()}
    failed = sum(rep["failed"] for rep in reports.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(rep["attempted"] for rep in reports.values()),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m.rsplit("/", 1)[-1])}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
