"""The benchmark's own tests: python3 -m pytest perfbench

Smoke-size runs of every workload in both modes, exact repetition of the
traced counts, the per-op limit, and the refusal to run without the source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    out = result(bench(workload, trace))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, metric in out["metrics"].items():
        assert metric["unit"] == units[name]
        if not trace:
            assert metric["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first = result(bench(workload, 1, hash_seed="1"))["metrics"]
    second = result(bench(workload, 1, hash_seed="2"))["metrics"]
    counted = [n for n, m in first.items() if m["unit"] in ("count", "ratio")]
    assert counted
    assert {n: first[n]["value"] for n in counted} == \
           {n: second[n]["value"] for n in counted}


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep-f2", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def load_run_module():
    sys.path.insert(0, str(HERE))
    import run
    return run


def test_op_over_its_limit_counts_as_failed_and_names_its_seed():
    # Over Q, random_instance(27) spends minutes in morphism-spectral-map: the
    # generated closure of its right-comodule form has no work budget.
    run = load_run_module()
    from workloads import WORKLOADS
    pkg, instances, _, _ = run.import_and_build(ROOT / "src", ["random:27/Q"],
                                                repeats=1)
    bench_run = run.Run(pkg, WORKLOADS["sweep-q"], instances, {}, seconds=0.0,
                        op_limit_s=1.0)
    bench_run.passes()
    assert bench_run.attempted == 1
    assert bench_run.failures == [("random:27/Q", "over the 1 s limit")]
    assert bench_run.correct is False


def test_op_that_raises_counts_as_failed_and_makes_the_run_incorrect():
    run = load_run_module()
    from workloads import WORKLOADS
    pkg, instances, _, _ = run.import_and_build(ROOT / "src", ["random:12/F2"],
                                                repeats=1)
    expected = json.loads((HERE / "expected.json").read_text())["instances"]
    good = run.Run(pkg, WORKLOADS["sweep-f2"], instances, expected, seconds=0.0)
    good.passes()
    assert good.failures == [] and good.correct is True
    # An object that is not a bicomodule makes the analysis raise.
    bad = run.Run(pkg, WORKLOADS["sweep-f2"], [("random:12/F2", object())],
                  expected, seconds=0.0)
    bad.passes()
    assert bad.attempted == 1 and bad.errors == {}
    assert [ref for ref, _ in bad.failures] == ["random:12/F2"]
    assert bad.correct is False
