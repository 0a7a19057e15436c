"""Run one workload of the netclear benchmark and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from any directory; the checkout root is found from this file.  The
workload runs as one closed-loop client: a single process, tasks one after
another.  ``--trace 0`` repeats whole passes over the seed's tasks until
``--seconds`` of task time have passed and reports the end-to-end metrics.
``--trace 1`` runs one pass untraced and one pass traced, and reports the
per-layer metrics.  Every task's output is checked against its golden
digest; the last line of standard output is the JSON result, and the exit
code is 1 when any output was wrong.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# the scans are elementwise; keep any BLAS pool to one thread on 2 cores
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5
DEADLINE_S = 150.0  # hard stop for the measured passes, so a run ends in time


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "structure", "manipulate", "properties"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def run_pass(wl, ids, inputs, goldens, tracer, deadline, checked):
    """One pass over the tasks.  Returns (per-task rows, verify seconds, cut).

    ``tracer`` is a ``tracing.Tracer`` to tag spans with the task id, or
    None for an untraced pass.

    A row is (task id, seconds, error or None).  A task fails when it
    raises, overruns its cap, or its output digest differs from the
    golden.  Checking happens between tasks and is excluded from timing.
    """
    from workloads import digest_of

    rows, verify_s = [], 0.0
    for k, (tid, inp) in enumerate(zip(ids, inputs)):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return rows, verify_s, True
        if tracer is not None:
            tracer.task = k + 1
        err = result = None
        signal.setitimer(signal.ITIMER_REAL, min(wl.cap_s, remaining))
        start = time.perf_counter()
        try:
            result = wl.run(inp)
        except TaskTimeout:
            err = f"overran its {wl.cap_s:g} s cap"
        except Exception as exc:  # a failed task is counted, the run goes on
            err = f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - start
        t_check = time.perf_counter()
        if err is None:
            try:
                if digest_of(wl, inp, result) != goldens[tid]["digest"]:
                    err = "output differs from its golden"
                elif tid not in checked:
                    problems = wl.oracle(inp, result)
                    checked.add(tid)
                    if problems:
                        err = "oracle: " + problems[0]
            except Exception as exc:  # checking must not stop the run
                err = f"check raised {exc!r}"
        result = None
        verify_s += time.perf_counter() - t_check
        if err is not None:
            print(f"FAIL {wl.name} task {tid}: {err}", file=sys.stderr)
        rows.append((tid, took, err))
    return rows, verify_s, False


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes, for a median that import noise cannot sway."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "1",
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def metadata(args, numpy_version) -> dict:
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = os.path.join(ROOT, "src", "netclear")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "src_lines": lines}


SHARE_CHECKS = {
    # workload -> (description, spans whose shares are summed, least percent)
    "scan": ("find_equilibria self time incl. its vectorized closures",
             ("equilibrium.find_equilibria", "expr.vector"), 80.0),
    "structure": ("is_equilibrium, demand_set, Z and the verifiers",
                  ("equilibrium.is_equilibrium", "demand.demand_set",
                   "demand.indirect_utility", "equilibrium.surplus",
                   "equilibrium.verify_lattice_pair",
                   "equilibrium.verify_rural_hospitals_pair",
                   "equilibrium.extremal_equilibria"), 50.0),
    "manipulate": ("per-misreport record assembly, extremal and mechanisms",
                   ("mechanisms.manipulation_search",
                    "mechanisms.buyer_optimal_mechanism",
                    "equilibrium.is_equilibrium", "equilibrium.surplus",
                    "equilibrium.extremal_equilibria", "demand.demand_set",
                    "demand.indirect_utility", "expr.compile"), 70.0),
    "properties": ("properties checks and scalar demand_set",
                   ("properties.check", "demand.demand_set"), 80.0),
}
# spans that must stay negligible (at most this percent) on a workload
SHARE_LIMITS = {
    "structure": (("expr.vector",), 5.0),
    "manipulate": (("equilibrium.find_equilibria", "expr.vector"), 25.0),
    "properties": (("equilibrium.find_equilibria", "expr.vector"), 0.0),
}


def share_check(workload, shares) -> dict:
    what, spans, least = SHARE_CHECKS[workload]
    total = sum(shares[s] for s in spans)
    ok = total >= least
    result = {"check": what, "share_pct": total, "least_pct": least}
    if workload in SHARE_LIMITS:
        limited, most = SHARE_LIMITS[workload]
        bounded = sum(shares[s] for s in limited)
        result.update(limited=list(limited), limited_pct=bounded, most_pct=most)
        ok = ok and bounded <= most
    result["ok"] = ok
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "netclear", "__init__.py")):
        print(f"error: no netclear sources under {src}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so the work directory and any child are cleaned up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.path.insert(0, src)
    import numpy
    import netclear  # noqa: F401  (import time is part of set-up)
    from common import TAIL_BEYOND, load_goldens, min_passes, select, tail
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    goldens = load_goldens()["workloads"][wl.name]
    ids = select(wl.name, goldens, args.seed, wl.take_all_pct)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT)
    try:
        inputs = [wl.prepare(wl.spec(t), workdir) for t in ids]
        setup_own = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        signal.signal(signal.SIGALRM, _alarm)
        deadline = time.perf_counter() + DEADLINE_S
        meta = metadata(args, numpy.__version__)
        meta["tasks_per_pass"] = len(ids)
        meta["tail_pct"] = wl.tail_pct
        checked: set = set()
        if args.trace == 0:
            rows, passes = [], 0
            need = min_passes(len(ids), wl.tail_pct)
            start = time.perf_counter()
            verify_s = 0.0
            while True:
                got, v, cut = run_pass(wl, ids, inputs, goldens, None,
                                       deadline, checked)
                rows += got
                verify_s += v
                passes += 1
                wall = time.perf_counter() - start - verify_s
                if cut or (passes >= need and wall >= args.seconds):
                    break
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup_own] + setup_samples(args)
            times = [took for _, took, _ in rows]
            ok = sum(1 for _, _, err in rows if err is None)
            tail_ms, beyond = tail(times, wl.tail_pct)
            metrics = {
                "tasks_per_s": (ok / wall, "tasks/s"),
                "task_p50_ms": (1000.0 * statistics.median(times), "ms"),
                "task_tail_ms": (1000.0 * tail_ms, "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
            meta.update(passes=passes, min_passes=need, wall_s=wall,
                        tasks_beyond_tail=beyond, setup_samples_s=setups)
            if beyond < TAIL_BEYOND:
                print(f"FAIL {wl.name}: only {beyond} tasks beyond "
                      f"p{wl.tail_pct:g}", file=sys.stderr)
        else:
            rows, _, cut = run_pass(wl, ids, inputs, goldens, None,
                                    deadline, checked)
            untraced = sum(took for _, took, _ in rows)
            tracer = Tracer()
            tracer.install()
            try:
                traced_rows, _, cut2 = run_pass(wl, ids, inputs, goldens, tracer,
                                                deadline, checked)
            finally:
                tracer.uninstall()
            rows += traced_rows
            traced = sum(took for _, took, _ in traced_rows)
            metrics, shares = tracer.metrics(traced)
            spans_path = os.path.join(
                OUT, f"spans-{wl.name}-seed{args.seed}.csv.gz")
            tracer.write(spans_path)
            meta.update(untraced_task_s=untraced, traced_task_s=traced,
                        trace_overhead_s=traced - untraced,
                        trace_overhead_pct=(100.0 * (traced - untraced) / untraced
                                            if untraced else 0.0),
                        spans=len(tracer.spans), spans_file=spans_path,
                        layer_shares_pct=shares,
                        layer_share_check=share_check(wl.name, shares))
            cut = cut or cut2
        failed = sum(1 for _, _, err in rows if err is not None)
        meta["fail_ratio"] = failed / len(rows) if rows else 1.0
        meta["cut_by_deadline"] = cut
        correct = failed == 0 and bool(rows) and not cut and (
            args.trace == 1 or meta["tasks_beyond_tail"] >= TAIL_BEYOND)
        for name, (value, unit) in metrics.items():
            print(f"{wl.name} {name} = {value:.6g} {unit}")
        print(f"{wl.name} fail_ratio = {meta['fail_ratio']:.6g} "
              f"({failed} failed / {len(rows)} attempted)")
        if args.trace == 0:
            print(f"{wl.name} task_tail_ms is p{meta['tail_pct']:g} with "
                  f"{meta['tasks_beyond_tail']} tasks beyond it, "
                  f"of {len(rows)} tasks")
        print("META " + json.dumps(meta, sort_keys=True))
        print(json.dumps({
            "correct": correct, "attempted": len(rows), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
