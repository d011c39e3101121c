"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR

Set-up imports ``normcert`` and writes the workload's input documents into
WORKDIR, then prints ``ready``; the parent times set-up up to that line.
The stream then runs as a closed loop with one client: each request calls
``normcert.cli.main(argv)`` in this process with stdout captured, and the
next request starts only after the previous one has returned and its output
has been checked.  A short calibration loop runs before each request, outside
its timing, so the parent can scale times to a reference host speed.  The last stdout line is a JSON summary of the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Calibration:
    """A fixed pure-Python loop that measures the host's current speed.

    It mixes dict lookups, small frozensets and reads scattered over a few
    MB, the kinds of work the engine does, so it slows down under the same
    contention the requests see.
    """

    def __init__(self):
        rng = random.Random(0)
        self.keys = list(range(1 << 16))
        rng.shuffle(self.keys)
        self.table = {i: i * 3 for i in range(1 << 14)}

    def __call__(self) -> float:
        keys, table, mask = self.keys, self.table, len(self.keys) - 1
        start = time.perf_counter()
        acc = 0
        for i in range(12000):
            k = keys[(i * 7919) & mask]
            acc += table.get(k & 0x3FFF, 0) + len(frozenset((k, k + 1, k + 2)))
        return time.perf_counter() - start


def cache_entries(certify) -> int:
    """Entries held by the ``lru_cache``s of the certify module."""
    return sum(f.cache_info().currsize for f in vars(certify).values()
               if hasattr(f, "cache_info"))


def main(workload: str, seed: int, trace: bool, workdir: str) -> dict:
    for key in [k for k in os.environ if k.startswith("NORMCERT_")]:
        del os.environ[key]  # a stray shell setting must not change the workload
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import normcert
    from normcert import certify, cli

    import checks
    import workloads

    requests = workloads.stream(workload, seed)
    workloads.write_inputs(workload, workdir)
    recorded = checks.load_recorded()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(normcert)
    print("ready", flush=True)

    calibrate = Calibration()
    latencies, calibration, failures, bytes_out = [], [], [], 0
    for req in requests:
        calibration.append(calibrate())
        argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in req["argv"]]
        if tracer is not None:
            tracer.request = req["id"]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed request, not a dead pass
            rc, problem = None, f"raised {exc!r}"
        latencies.append(time.perf_counter() - start)
        out = buf.getvalue()
        bytes_out += len(out.encode())
        if rc is not None:
            problem = checks.check(req, rc, out, recorded)
        if problem is not None:
            failures.append(f"request {req['id']} ({' '.join(req['argv'])}): {problem}")

    result = {
        "latencies": latencies,
        "calibration": calibration,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "_out", f"trace-{workload}.jsonl"))
        result["layers"] = tracer.layer_metrics(cache_entries(certify), bytes_out)
    return result


if __name__ == "__main__":
    name, seed_arg, trace_arg, work = sys.argv[1:5]
    print(json.dumps(main(name, int(seed_arg), trace_arg == "1", work)))
