"""Per-layer tracing of commgate from outside the package.

Every public function of a layer is replaced, for the length of a
``Tracer.installed()`` block, by a wrapper that records a span (name, start,
end, parent span, op id) and adds work counts taken from the call's
arguments and result.  ``myopic``/``nonmyopic`` import ``integrate`` by name
and ``cli`` imports ``run`` by name, so those names are rebound in the
importing module too; otherwise their calls would bypass the wrapper.

Spans stay in memory; ``Tracer.summary()`` turns them into per-name call
counts, inclusive time and self time (inclusive time minus the time covered
by direct child spans).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

import commgate.cli
import commgate.dataset
import commgate.distributions
import commgate.myopic
import commgate.nonmyopic
import commgate.simulate
from commgate.errors import QuadratureError, SolverError


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: str | None


class Tracer:
    """Span recorder plus named work counters for one traced repetition."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op: str | None = None

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)

    def op_span(self, label, fn, *args):
        """Root span for one CLI command; its children carry ``label`` as op id."""
        self.op = label
        try:
            return self.call(f"cli.{label}", fn, args, {})
        finally:
            self.op = None

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sp, ch in zip(self.spans, child):
            agg = out[sp.name]
            agg["calls"] += 1
            agg["s"] += sp.end - sp.start
            agg["self_s"] += sp.end - sp.start - ch
        return dict(out)

    def root_time(self) -> float:
        return sum(sp.end - sp.start for sp in self.spans if sp.parent < 0)

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        saved = []
        try:
            for owners, attr, wrapper in _patches(self):
                for owner in owners:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _size(x) -> int:
    return int(np.size(x))


def _patches(tr: Tracer):
    """(owners, attribute, wrapper) for every traced layer function."""
    dist_mod = commgate.distributions
    Dist = dist_mod.RewardDistribution
    my = commgate.myopic
    nm = commgate.nonmyopic
    sim = commgate.simulate
    ds = commgate.dataset
    c = tr.counts

    def traced(name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = tr.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- distributions -------------------------------------------------
    integrate = dist_mod.integrate

    def count_integrand(args, kwargs):
        args = list(args)
        f = args[1] if len(args) > 1 else kwargs["integrand"]

        def counted(x):
            c["distributions.integrate.evals"] += _size(x)
            return f(x)

        if len(args) > 1:
            args[1] = counted
        else:
            kwargs = {**kwargs, "integrand": counted}
        return tuple(args), kwargs

    def integrate_wrapper(*args, **kwargs):
        args, kwargs = count_integrand(args, kwargs)
        try:
            return tr.call("distributions.integrate", integrate, args, kwargs)
        except QuadratureError:
            c["distributions.integrate.errors"] += 1
            raise

    integrate_wrapper.__wrapped__ = integrate
    yield (dist_mod, my, nm), "integrate", integrate_wrapper

    def points(key):  # size of the evaluated argument (after self)
        def after(args, kwargs, result):
            c[key] += _size(args[1])
        return after

    yield (Dist,), "cdf", traced("distributions.cdf", Dist.cdf, after=points("distributions.cdf.points"))
    yield (Dist,), "ppf", traced("distributions.ppf", Dist.ppf, after=points("distributions.ppf.points"))
    yield (Dist,), "tail_mean_excess", traced("distributions.tail_mean_excess", Dist.tail_mean_excess)

    # -- myopic -----------------------------------------------------------
    for fname in ("welfare_centralized", "deviation_condition", "scan_single_window",
                  "optimize_single_window", "optimize_exact"):
        yield (my,), fname, traced(f"myopic.{fname}", getattr(my, fname))

    # -- nonmyopic --------------------------------------------------------
    solve_one_time = nm.solve_one_time

    def add_solver_diag(diag):
        for key in ("iterations", "damped", "bisection_rescues"):
            c[f"nonmyopic.solve_one_time.{key}"] += diag.get(key, 0)

    def solve_one_time_wrapper(*args, **kwargs):
        try:
            seq = tr.call("nonmyopic.solve_one_time", solve_one_time, args, kwargs)
        except SolverError as exc:
            c["nonmyopic.solve_one_time.failures"] += 1
            add_solver_diag(exc.diagnostics)
            raise
        add_solver_diag(seq.diagnostics)
        return seq

    solve_one_time_wrapper.__wrapped__ = solve_one_time
    yield (nm,), "solve_one_time", solve_one_time_wrapper

    def scan_counts(args, kwargs, rows):
        c["nonmyopic.scan_comm_times.attempted"] += len(rows)
        c["nonmyopic.scan_comm_times.solved"] += sum(seq is not None for _, _, seq in rows)

    yield (nm,), "welfare_one_time", traced("nonmyopic.welfare_one_time", nm.welfare_one_time)
    yield (nm,), "solve_centralized_nonmyopic", traced(
        "nonmyopic.solve_centralized_nonmyopic", nm.solve_centralized_nonmyopic)
    yield (nm,), "scan_comm_times", traced("nonmyopic.scan_comm_times", nm.scan_comm_times,
                                           after=scan_counts)
    yield (nm.BeliefCdf,), "__call__", traced(
        "nonmyopic.BeliefCdf", nm.BeliefCdf.__call__, after=points("nonmyopic.BeliefCdf.points"))

    # -- simulate -----------------------------------------------------------
    run = sim.run

    def run_wrapper(config, *args, **kwargs):
        mode = config.reward_mode
        c[f"simulate.run.{mode}.agent_slots"] += (
            config.replications * config.n_agents * (config.horizon + 1))
        return tr.call(f"simulate.run.{mode}", run, (config, *args), kwargs)

    run_wrapper.__wrapped__ = run
    yield (sim, commgate.cli), "run", run_wrapper

    # -- dataset ------------------------------------------------------------
    for fname in ("load_ratings", "fit_reward_cdf"):
        yield (ds,), fname, traced(f"dataset.{fname}", getattr(ds, fname))
