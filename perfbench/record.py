"""Record the golden digest and reference cost of every task of every pool.

    python3 perfbench/record.py [--workload NAME ...]

Run this on the seed code only: the goldens are the outputs later commits
must reproduce.  The reference cost of an item (its task time here) is
used only to pair items of similar cost in ``common.select``; it is stored
with the goldens so task selection never depends on the host that runs
the benchmark.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
import time

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from common import GOLDENS, select  # noqa: E402
from workloads import WORKLOADS, digest_of  # noqa: E402


def record(wl) -> dict:
    entries = {}
    ids = [f"f{i}" for i in range(len(wl.fixed()))] + [
        str(i) for i in range(wl.pool_size)]
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for tid in ids:
            inp = wl.prepare(wl.spec(tid), workdir)
            signal.setitimer(signal.ITIMER_REAL, wl.cap_s)
            start = time.perf_counter()
            try:
                result = wl.run(inp)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            cost = time.perf_counter() - start
            problems = wl.oracle(inp, result)
            if problems:
                raise SystemExit(f"{wl.name} {tid}: {problems}")
            entries[tid] = {"digest": digest_of(wl, inp, result), "cost_s": round(cost, 4)}
            print(f"{wl.name} {tid} {cost:.3f}s", flush=True)
    costs = [e["cost_s"] for e in entries.values()]
    passes = [sum(entries[t]["cost_s"] for t in select(wl.name, entries, s, wl.take_all_pct))
              for s in range(10)]
    print(f"{wl.name}: {len(costs)} items, total {sum(costs):.2f}s, median "
          f"{statistics.median(costs):.3f}s, max {max(costs):.3f}s; pass cost "
          f"for seeds 0-9: {min(passes):.2f}-{max(passes):.2f}s", flush=True)
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    os.makedirs(run.OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, run._alarm)
    data = {"workloads": {}}
    if os.path.exists(GOLDENS):
        with open(GOLDENS, encoding="utf-8") as fh:
            data = json.load(fh)
    for name in args.workload or sorted(WORKLOADS):
        data["workloads"][name] = record(WORKLOADS[name])
    import numpy
    data["recorded_with"] = run.metadata(
        argparse.Namespace(workload=None, seed=None, trace=None, seconds=None),
        numpy.__version__)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
