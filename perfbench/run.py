#!/usr/bin/env python3
"""commgate benchmark: time to a verified schedule, and cost of the oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reveal --seed 1 --seconds 40 --trace 0

Each invocation is one workload in its own process.  It imports commgate
from ``src/``, fits the hotel prior with ``commgate fit`` (set-up), then runs
the workload's CLI command list through ``commgate.cli.main(argv)``
repeatedly for about ``--seconds`` seconds, checks every repetition's
outputs, and prints one JSON result object as the last stdout line.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes) and ``wall_s`` (sum of per-command medians), both rescaled
to a reference host speed, and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py``, including the tracing overhead.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOTEL_RATINGS = ROOT / "data" / "hotel_ratings.csv"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 5  # in-process fits (traced with --trace 1)
SETUP_PROCESSES = 5  # fresh processes that each pay the whole set-up, import included

# Host speed on a shared VM swings by up to 2x for seconds to minutes at a
# time, and the process's CPU time moves with it.  So every timed command and
# set-up is bracketed by a fixed calibration loop of the same kind of work as
# its hot loop, and its time is rescaled to the host speed at which that loop
# takes its reference time.
CALIBRATION_REF_S = {"interpreter": 0.09, "arrays": 0.1}

E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

CLI_LABELS = ("fit", "reveal_hotel", "reveal_beta", "window_beta", "window_hotel", "window_exact",
              "oracle_myopic_open", "oracle_myopic_window", "oracle_reveal_exact",
              "oracle_reveal_noisy", "oracle_myopic_het")
SIM_MODES = ("deterministic", "stochastic", "heterogeneous")
MYOPIC_FUNCS = ("welfare_centralized", "deviation_condition", "scan_single_window",
                "optimize_single_window", "optimize_exact")

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("distributions.integrate.calls", "count", "lower"),
    ("distributions.integrate.evals", "count", "lower"),
    ("distributions.integrate.self_s", "s", "lower"),
    ("distributions.integrate.errors", "count", "lower"),
    ("distributions.cdf.points", "count", "lower"),
    ("distributions.cdf.s", "s", "lower"),
    ("distributions.ppf.points", "count", "lower"),
    ("distributions.ppf.s", "s", "lower"),
    ("distributions.tail_mean_excess.calls", "count", "lower"),
    ("distributions.tail_mean_excess.s", "s", "lower"),
    *[(f"myopic.{f}.{k}", u, "lower") for f in MYOPIC_FUNCS
      for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))],
    ("nonmyopic.solve_one_time.calls", "count", "lower"),
    ("nonmyopic.solve_one_time.s", "s", "lower"),
    ("nonmyopic.solve_one_time.self_s", "s", "lower"),
    ("nonmyopic.solve_one_time.iterations", "count", "lower"),
    ("nonmyopic.solve_one_time.damped", "count", "lower"),
    ("nonmyopic.solve_one_time.bisection_rescues", "count", "lower"),
    ("nonmyopic.solve_one_time.failures", "count", "lower"),
    ("nonmyopic.welfare_one_time.calls", "count", "lower"),
    ("nonmyopic.welfare_one_time.s", "s", "lower"),
    ("nonmyopic.BeliefCdf.points", "count", "lower"),
    ("nonmyopic.BeliefCdf.s", "s", "lower"),
    ("nonmyopic.solve_centralized_nonmyopic.calls", "count", "lower"),
    ("nonmyopic.scan_comm_times.useful_ratio", "ratio", "higher"),
    *[(f"simulate.run.{m}.{k}", u, b) for m in SIM_MODES
      for k, u, b in (("s", "s", "lower"), ("agent_slots", "count", "higher"),
                      ("agent_slots_per_s", "1/s", "higher"))],
    ("dataset.load_ratings.s", "s", "lower"),
    ("dataset.fit_reward_cdf.s", "s", "lower"),
    *[(f"cli.{label}.s", "s", "lower") for label in CLI_LABELS],
    ("check.max_rel_err", "ratio", "lower"),
    ("check.max_abs_z", "sigma", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def prepare() -> tuple[int, float]:
    """Cap threads, put ``src/`` on the path and import commgate.

    Returns the core count and the import time (part of set-up).
    """
    nproc = cap_threads()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import commgate  # noqa: F401
    return nproc, time.perf_counter() - start


def host_slowness(kind: str) -> float:
    """A fixed calibration loop's time over its reference time (1 = reference speed).

    ``interpreter``: interpreter work on small arrays, like the quadrature and
    solver inner loops.  ``arrays``: inverse-CDF lookups, selects and a
    broadcast maximum on replication-sized arrays, like the simulator.
    """
    import numpy as np

    start = time.perf_counter()
    if kind == "interpreter":
        x = np.linspace(0.0, 1.0, 64)
        acc = 0.0
        for i in range(20000):
            acc += float(np.sum(x * x)) + i * 0.5
    else:
        u = np.random.default_rng(0).random((2048, 50))
        grid = np.linspace(0.0, 1.0, 512)
        for _ in range(6):
            v = np.interp(u, grid**2, grid)
            m = np.where(v > 0.5, v, u)
            np.clip(m[:256, None, :] + v[:256, :, None], 0.0, 1.0).max(axis=2)
    return (time.perf_counter() - start) / CALIBRATION_REF_S[kind]


def rescaled(seconds: float, slow_before: float, slow_after: float) -> float:
    """``seconds`` at reference host speed, from the calibrations around it."""
    return seconds / (0.5 * (slow_before + slow_after))


def setup_sample(workload: str, seed: int, work: str) -> float:
    """Set-up time as a fresh process pays it: import commgate, fit, write configs."""
    _, import_s = prepare()
    return import_s + Bench(workload, seed, Path(work), trace=False).setup_once()


def setup_in_child(workload: str, seed: int, work: Path) -> float:
    """``setup_sample`` in a new interpreter; waits for it to exit."""
    code = f"import run; print(run.setup_sample({workload!r}, {seed}, {str(work)!r}))"
    done = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def git_sha(root: Path) -> str:
    """HEAD commit read from ``.git`` files; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class OpOutcome:
    label: str
    code: int | None
    stdout: str
    error: str
    seconds: float
    ref_seconds: float  # ``seconds`` rescaled to reference host speed


def invoke(cli_main, argv) -> tuple[int | None, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # any crash is a failed op, not a crashed benchmark
            return None, out.getvalue(), err.getvalue() + traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    outcomes: list[OpOutcome]
    records: dict = field(default_factory=dict)  # label -> parsed outputs
    tracer: object = None


class Bench:
    """One workload in one process: set-up, repetitions, checks, metrics."""

    def __init__(self, workload: str, seed: int, work: Path, trace: bool):
        import commgate.cli
        import tracing

        self.cli_main = commgate.cli.main
        self.tracing = tracing
        self.workload = workload
        self.seed = seed % 2**63
        self.work = work
        self.trace = trace
        self.prior_csv = work / "hotel_prior.csv"
        self.ops = workloads.ops(workload, work, self.prior_csv)

    # -- set-up -------------------------------------------------------------

    def setup_once(self, tracer=None) -> float:
        start = time.perf_counter()
        argv = ("fit", str(HOTEL_RATINGS), str(self.prior_csv))
        if tracer is None:
            code, out, err = invoke(self.cli_main, argv)
        else:
            with tracer.installed():
                code, out, err = tracer.op_span("fit", invoke, self.cli_main, argv)
        if code != 0:
            raise RuntimeError(f"set-up failed: commgate fit exited {code}: {err}")
        if self.workload == "oracle":
            workloads.write_oracle_configs(self.work, self.prior_csv, self.seed)
        return time.perf_counter() - start

    # -- repetitions ----------------------------------------------------------

    def run_rep(self, tracer=None) -> Rep:
        outcomes = []
        cpu_start = time.process_time()
        start = time.perf_counter()
        kind = workloads.CALIBRATION[self.workload]
        slow = host_slowness(kind) if tracer is None else math.nan
        with tracer.installed() if tracer else contextlib.nullcontext():
            for op in self.ops:
                op_start = time.perf_counter()
                if tracer is None:
                    code, out, err = invoke(self.cli_main, op.argv)
                else:
                    code, out, err = tracer.op_span(op.label, invoke, self.cli_main, op.argv)
                seconds = time.perf_counter() - op_start
                slow_before, slow = slow, host_slowness(kind) if tracer is None else math.nan
                outcomes.append(OpOutcome(op.label, code, out, err, seconds,
                                          rescaled(seconds, slow_before, slow)))
        rep = Rep(time.perf_counter() - start, time.process_time() - cpu_start, outcomes, tracer=tracer)
        # parse outputs now: the next repetition overwrites the files
        for op, oc in zip(self.ops, outcomes):
            if oc.code != 0:
                continue
            try:
                rep.records[op.label] = (
                    workloads.simulate_record(op, oc.stdout) if self.workload == "oracle"
                    else workloads.optimize_record(op, oc.stdout))
            except (OSError, ValueError, IndexError) as exc:
                oc.error += f"unreadable output: {exc}"
        return rep

    def repeat(self, seconds: float) -> tuple[list[Rep], list[Rep]]:
        """Untraced (and, with tracing, traced) repetitions until the budget is spent.

        A new round starts only if the longest round so far still fits in the
        budget, so a run rarely measures longer than ``seconds`` after its
        first round.
        """
        plain, traced = [], []
        start = time.perf_counter()
        longest = 0.0
        while True:
            round_start = time.perf_counter()
            plain.append(self.run_rep())
            if self.trace:
                traced.append(self.run_rep(self.tracing.Tracer()))
            now = time.perf_counter()
            longest = max(longest, now - round_start)
            if now - start + longest > seconds:
                return plain, traced

    # -- checks -----------------------------------------------------------------

    def check(self, reps: list[Rep]) -> tuple[int, int, list[str], float, float]:
        """(attempted, failed, messages, max relative error, max |z|)."""
        if self.workload == "oracle":
            analytic = workloads.analytic_welfare(self.prior_csv)
        else:
            reference = json.loads(REFERENCE.read_text())[self.workload]
        attempted = failed = 0
        messages: list[str] = []
        max_rel = max_z = 0.0
        for i, rep in enumerate(reps):
            for oc in rep.outcomes:
                attempted += 1
                fails = []
                if oc.code != 0:
                    fails.append(f"exit code {oc.code}: {oc.error.strip()[-400:]}")
                elif oc.label not in rep.records:
                    fails.append(oc.error)
                elif self.workload == "oracle":
                    fails, z = workloads.check_simulate(oc.label, rep.records[oc.label], analytic)
                    max_z = max(max_z, z)
                else:
                    fails, rel = workloads.check_optimize(rep.records[oc.label], reference[oc.label])
                    max_rel = max(max_rel, rel)
                if fails:
                    failed += 1
                    messages += [f"rep {i} {oc.label}: {msg}" for msg in fails]
        return attempted, failed, messages, max_rel, max_z


def op_medians(reps: list[Rep], attr: str = "seconds") -> dict[str, float]:
    """Median time of each op across repetitions (``attr``: raw or rescaled).

    Their sum is the reported ``wall_s``: per-op medians damp host-speed
    swings better than a median of whole-list times.
    """
    return {oc.label: statistics.median(getattr(rep.outcomes[i], attr) for rep in reps)
            for i, oc in enumerate(reps[0].outcomes)}


def layer_values(tracer) -> dict[str, float]:
    """Flatten one traced repetition into per-layer metric values."""
    vals: dict[str, float] = {}
    for name, agg in tracer.summary().items():
        for key, v in agg.items():
            vals[f"{name}.{key}"] = v
    vals.update(tracer.counts)
    attempted = vals.get("nonmyopic.scan_comm_times.attempted", 0)
    vals["nonmyopic.scan_comm_times.useful_ratio"] = (
        vals.get("nonmyopic.scan_comm_times.solved", 0) / attempted if attempted else 0.0)
    for mode in SIM_MODES:
        s = vals.get(f"simulate.run.{mode}.s", 0.0)
        slots = vals.get(f"simulate.run.{mode}.agent_slots", 0)
        vals[f"simulate.run.{mode}.agent_slots_per_s"] = slots / s if s > 0 else 0.0
    return vals


def trace_metrics(plain: list[Rep], traced: list[Rep], setup_tracers: list,
                  max_rel: float, max_z: float) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced repetitions) and count mismatches."""
    med = statistics.median
    per_rep = [layer_values(rep.tracer) for rep in traced]
    setup_vals = [layer_values(t) for t in setup_tracers]
    problems = []
    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith(("check.", "trace.")):
            continue
        source = setup_vals if name.startswith(("dataset.", "cli.fit.")) else per_rep
        vals = [v.get(name, 0.0) for v in source]
        if unit in ("count", "ratio") and len(set(vals)) > 1:
            problems.append(f"count {name} differs across traced repetitions: {vals}")
        out[name] = med(vals)
    out["check.max_rel_err"] = max_rel
    out["check.max_abs_z"] = max_z
    out["trace.wall_s"] = sum(op_medians(traced).values())
    out["trace.unattributed_s"] = med(r.wall_s - r.tracer.root_time() for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - sum(op_medians(plain).values())
    return out, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "commgate" / "__init__.py").is_file() or not HOTEL_RATINGS.is_file():
        print(f"error: {SRC / 'commgate'} and {HOTEL_RATINGS} must exist; "
              "run from a full commgate checkout", file=sys.stderr)
        return 2

    nproc, import_s = prepare()
    import numpy
    import scipy

    env = {
        "git_sha": git_sha(ROOT), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": nproc,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "threads_cap": os.environ["OMP_NUM_THREADS"],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }
    print(json.dumps({"env": env}, sort_keys=True))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, work, bool(args.trace))
        setup_tracers = [bench.tracing.Tracer() for _ in range(SETUP_REPEATS)] if args.trace else []
        fits = [bench.setup_once(setup_tracers[i] if args.trace else None)
                for i in range(SETUP_REPEATS)]
        setups, ref_setups = [], []
        slow = host_slowness("interpreter")
        for _ in range(SETUP_PROCESSES if not args.trace else 0):
            setups.append(setup_in_child(args.workload, bench.seed, work))
            slow_before, slow = slow, host_slowness("interpreter")
            ref_setups.append(rescaled(setups[-1], slow_before, slow))
        plain, traced = bench.repeat(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, messages, max_rel, max_z = bench.check(plain + traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    if args.trace:
        metrics, problems = trace_metrics(plain, traced, setup_tracers, max_rel, max_z)
        messages += problems
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(ref_setups),
            "wall_s": sum(op_medians(plain, "ref_seconds").values()),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)

    print(json.dumps({"summary": {
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "rep_wall_s": [round(r.wall_s, 4) for r in plain],
        "rep_cpu_s": [round(r.cpu_s, 4) for r in plain],
        "op_s": {label: round(v, 4) for label, v in op_medians(plain).items()},
        "op_ref_s": {label: round(v, 4) for label, v in op_medians(plain, "ref_seconds").items()},
        "import_s": round(import_s, 4), "fit_s": round(statistics.median(fits), 4),
        "setup_samples_s": [round(s, 4) for s in setups],
        "setup_ref_samples_s": [round(s, 4) for s in ref_setups],
        "failed_frac": failed / attempted, "max_rel_err": max_rel, "max_abs_z": max_z,
    }}, sort_keys=True))
    correct = not messages
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
