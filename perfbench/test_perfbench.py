"""Self-tests of the benchmark harness (about a minute).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest

import run

run.prepare()

import tracing  # noqa: E402  (needs commgate on the path)
import workloads  # noqa: E402

DETERMINISTIC_UNITS = ("count", "ratio")


@pytest.fixture(scope="module")
def work():
    run.WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()


def traced_rep(workload, work):
    bench = run.Bench(workload, 0, work, trace=True)
    bench.setup_once()
    return run.layer_values(bench.run_rep(tracing.Tracer()).tracer)


@pytest.fixture(scope="module")
def window_traces(work):
    return [traced_rep("window", work) for _ in range(2)]


def test_layer_counts_repeat_across_traced_runs(window_traces):
    a, b = window_traces
    for name, unit, _ in run.PER_LAYER:
        if unit in DETERMINISTIC_UNITS and not name.startswith("check."):
            assert a.get(name, 0) == b.get(name, 0), name


def test_integrate_is_traced_on_reveal_and_window(window_traces, work):
    # myopic/nonmyopic bind integrate at import: a wrapper on the
    # distributions module alone would count zero calls here
    assert window_traces[0]["distributions.integrate.calls"] > 0
    reveal = traced_rep("reveal", work)
    assert reveal["distributions.integrate.calls"] > 0
    assert reveal["nonmyopic.solve_one_time.iterations"] > 0


def test_tracer_restores_every_patched_name():
    import commgate.cli
    import commgate.myopic

    before = (commgate.myopic.integrate, commgate.cli.run)
    with tracing.Tracer().installed():
        assert commgate.myopic.integrate is not before[0]
        assert commgate.cli.run is not before[1]
    assert (commgate.myopic.integrate, commgate.cli.run) == before


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


def test_check_accepts_reference(reference):
    for workload in ("reveal", "window"):
        for label, ref in reference[workload].items():
            assert workloads.check_optimize(ref, ref) == ([], 0.0), label


def test_check_rejects_perturbed_welfare(reference):
    ref = reference["reveal"]["reveal_hotel"]
    rows = [list(r) for r in ref["rows"]]
    rows[3][1] *= 1 + 1e-6
    fails, worst = workloads.check_optimize({**ref, "rows": rows}, ref)
    assert fails and worst == pytest.approx(1e-6, rel=1e-3)


def test_check_rejects_dropped_row(reference):
    ref = reference["window"]["window_beta"]
    dropped = {**ref, "rows": ref["rows"][:-1]}
    assert workloads.check_optimize(dropped, ref)[0]  # row missing from output
    assert workloads.check_optimize(ref, dropped)[0]  # row missing from reference


def test_check_rejects_other_choice(reference):
    ref = reference["window"]["window_exact"]
    assert workloads.check_optimize({**ref, "choice": "exact windows: []"}, ref)[0]


def test_oracle_check_flags_far_closed_form():
    record = {"welfare": 100.0, "stderr": 1.0, "slot_means": [0.5] * (workloads.T_ORACLE + 1)}
    label = "oracle_myopic_open"
    assert workloads.check_simulate(label, record, {label: 103.0}) == ([], 3.0)
    fails, z = workloads.check_simulate(label, record, {label: 105.0})
    assert fails and z == 5.0


def test_nonzero_cli_exit_counts_as_failed(work):
    bench = run.Bench("window", 0, work, trace=False)
    bench.setup_once()
    good = bench.ops[-1]
    bad = workloads.Op("window_exact", ("optimize", "--dist", "beta:-1,2", "--n-agents", "5",
                                        "--horizon", "14", "--mode", "myopic-exact",
                                        "--out", str(good.out)), good.out)
    bench.ops = [good, bad]
    rep = bench.run_rep()
    assert [oc.code for oc in rep.outcomes] == [0, 2]
    attempted, failed, messages, _, _ = bench.check([rep])
    assert (attempted, failed) == (2, 1) and messages


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
