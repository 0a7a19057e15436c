"""Self-tests of the benchmark itself (not of netclear).

    python3 -m pytest -q perfbench/tests

* Counts are deterministic: a small traced run of each workload, made
  twice with the same seed, gives exactly the same counts.
* A different seed gives different inputs.
* Every workload does its job: in a full traced pass, the layer it is
  meant to stress holds the share ``run.share_check`` asks for.
* The tail percentile is the workload's own, whatever the speed: every
  seed gives the same pass size, so the fixed pass minimum always puts
  enough tasks beyond it, and a timed run reports that percentile.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
from common import TAIL_BEYOND, load_goldens, min_passes, select, tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = sorted(WORKLOADS)
SMALL = 4  # tasks per small traced run
COUNTED = ("equilibrium.grid_points", "equilibrium.records",
           "equilibrium.is_equilibrium.calls", "mechanisms.misreports_tried",
           "expr.compile.calls", "properties.pairs_tested")


def small_traced_counts(name, seed):
    wl = WORKLOADS[name]
    goldens = load_goldens()["workloads"][name]
    ids = select(name, goldens, seed, wl.take_all_pct)[:SMALL]
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        inputs = [wl.prepare(wl.spec(t), workdir) for t in ids]
        tracer = Tracer()
        tracer.install()
        try:
            rows, _, cut = run.run_pass(wl, ids, inputs, goldens, tracer,
                                        float("inf"), set())
        finally:
            tracer.uninstall()
    assert not cut and all(err is None for _, _, err in rows), rows
    metrics, _ = tracer.metrics(sum(took for _, took, _ in rows))
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_counts_repeat_exactly(name):
    first = small_traced_counts(name, seed=7)
    second = small_traced_counts(name, seed=7)
    assert first == second
    for key in COUNTED:
        assert key in first


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_other_seed_changes_inputs(name):
    wl = WORKLOADS[name]
    goldens = load_goldens()["workloads"][name]
    one, two = (select(name, goldens, seed, wl.take_all_pct) for seed in (1, 2))
    assert sorted(one) != sorted(two)
    assert sorted(json.dumps(wl.spec(t)) for t in one) != \
        sorted(json.dumps(wl.spec(t)) for t in two)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_intended_layer_dominates(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    meta = next(json.loads(line[5:]) for line in proc.stdout.splitlines()
                if line.startswith("META "))
    check = meta["layer_share_check"]
    assert check["ok"], check


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_pass_minimum_fixes_tail_percentile(name):
    wl = WORKLOADS[name]
    goldens = load_goldens()["workloads"][name]
    sizes = {len(select(name, goldens, seed, wl.take_all_pct))
             for seed in range(20)}
    assert len(sizes) == 1, sizes
    per_pass = sizes.pop()
    need = min_passes(per_pass, wl.tail_pct)
    for passes in (need, need + 1, need + 5):
        times = [float(i) for i in range(passes * per_pass)]
        assert tail(times, wl.tail_pct)[1] >= TAIL_BEYOND
    if need > 1:
        times = [float(i) for i in range((need - 1) * per_pass)]
        assert tail(times, wl.tail_pct)[1] < TAIL_BEYOND


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_timed_run_reports_own_tail_percentile(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    meta = next(json.loads(line[5:]) for line in proc.stdout.splitlines()
                if line.startswith("META "))
    assert meta["tail_pct"] == WORKLOADS[name].tail_pct
    assert meta["passes"] >= meta["min_passes"]
    assert meta["tasks_beyond_tail"] >= TAIL_BEYOND
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
