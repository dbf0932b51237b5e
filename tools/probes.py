#!/usr/bin/env python3
"""Named probes behind the work figures that ROADMAP.md and CHANGES.md quote.

Each probe runs the package from this checkout's ``src/`` and prints one JSON
line per case: the case's inputs, what the probe measured, and the host facts
that a figure can depend on (numpy's version and the SIMD features its
kernels dispatch to).  A probe changes no file; it wraps package names for its
own run only and puts them back.

    python3 tools/probes.py reveal_scan_work              # the sizes the figures quote
    python3 tools/probes.py reveal_scan_work --smallest   # the smoke size the tests run
    python3 tools/probes.py numpy_dispatch

Probes:

``reveal_scan_work``
    The work of ``scan_comm_times`` on the two scans of the benchmark's
    ``reveal`` workload: the hotel prior fitted from
    ``data/hotel_ratings.csv`` at N=50, T=50 and beta(2,5) at N=20, T=40
    (``--smallest``: both at N=2, T=4).  Per scan: the ``integrate`` calls,
    the lockstep's Newton rounds (calls of ``_OneTimeSystem.residuals``), its
    blocks (calls of ``_solve_block``), the integrand evaluations (the nodes
    that those ``integrate`` calls hand their integrands), and the summed
    solver iterations and bisection rescues of the rows.

``numpy_dispatch``
    The Python-level calls of the benchmark's two ``reveal`` ops, each the
    ``commgate optimize --mode nonmyopic`` command run in this process
    (``--smallest``: both at N=2, T=4), the hotel prior fitted into a
    temporary directory that is removed afterwards.  Each op runs once to
    warm up, then once under ``cProfile``.  Per op: every call the profiler
    sees (``calls``), and the calls of functions defined in numpy's own
    ``.py`` files (``numpy_py_calls``), the wrappers such as ``np.max`` or
    ``np.clip`` that forward to a compiled loop.

Usage: python3 tools/probes.py NAME [--smallest]
"""

import argparse
import contextlib
import cProfile
import io
import json
import pstats
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from commgate import cli, nonmyopic  # noqa: E402
from commgate.dataset import fit_reward_cdf, load_ratings  # noqa: E402
from commgate.distributions import RewardDistribution  # noqa: E402


def host():
    """numpy's version and the SIMD features that its kernels dispatch to here."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    return {"numpy": np.__version__,
            "simd": [f for f in umath.__cpu_baseline__ + umath.__cpu_dispatch__ if features.get(f)]}


@contextlib.contextmanager
def patched(owner, name, wrap):
    """``owner.<name>`` replaced by ``wrap(owner.<name>)`` until the block exits."""
    wrapped = getattr(owner, name)
    setattr(owner, name, wrap(wrapped))
    try:
        yield
    finally:
        setattr(owner, name, wrapped)


def counting(owner, name, counts, key):
    """Count in ``counts[key]`` the calls of ``owner.<name>`` until the block exits."""
    def wrap(call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper
    return patched(owner, name, wrap)


def counting_nodes(owner, name, counts, key):
    """Count in ``counts[key]`` the nodes that the calls of ``owner.<name>``, an
    ``integrate``, hand their integrands, until the block exits."""
    def wrap(integrate):
        def wrapper(dist, integrand, *args, **kwargs):
            def counted(r):  # the same node array, so its ``pair`` passes through
                counts[key] += r.size
                return integrand(r)
            return integrate(dist, counted, *args, **kwargs)
        return wrapper
    return patched(owner, name, wrap)


def reveal_scan_work(smallest=False):
    hotel = fit_reward_cdf(load_ratings(ROOT / "data" / "hotel_ratings.csv"))
    scans = [("hotel", hotel, 50, 50), ("beta:2,5", RewardDistribution.beta(2, 5), 20, 40)]
    for prior, d, N, T in scans:
        if smallest:
            N, T = 2, 4
        counts = {"integrate_calls": 0, "rounds": 0, "blocks": 0, "integrand_evals": 0}
        with (counting(nonmyopic, "integrate", counts, "integrate_calls"),
              counting_nodes(nonmyopic, "integrate", counts, "integrand_evals"),
              counting(nonmyopic._OneTimeSystem, "residuals", counts, "rounds"),
              counting(nonmyopic, "_solve_block", counts, "blocks")):
            rows = nonmyopic.scan_comm_times(d, N, T)
        diagnostics = [seq.diagnostics for _, _, seq in rows]
        yield {"probe": "reveal_scan_work", "prior": prior, "N": N, "T": T, **counts,
               "iterations": sum(diag["iterations"] for diag in diagnostics),
               "bisection_rescues": sum(diag["bisection_rescues"] for diag in diagnostics),
               **host()}


def numpy_dispatch(smallest=False):
    numpy_py = str(Path(np.__file__).parent)
    with tempfile.TemporaryDirectory() as tmp:
        prior = Path(tmp) / "hotel_prior.csv"
        ops = [("reveal_hotel", str(prior), 50, 50), ("reveal_beta", "beta:2,5", 20, 40)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["fit", str(ROOT / "data" / "hotel_ratings.csv"), str(prior)]) != 0:
                raise SystemExit("error: commgate fit failed")
        for label, dist, N, T in ops:
            if smallest:
                N, T = 2, 4
            argv = ["optimize", "--dist", dist, "--n-agents", str(N), "--horizon", str(T),
                    "--mode", "nonmyopic", "--out", str(Path(tmp) / f"{label}.csv")]
            profile = cProfile.Profile()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv), profile.runcall(cli.main, argv)]
            if codes != [0, 0]:
                raise SystemExit(f"error: {label} exited {codes}")
            stats = pstats.Stats(profile).stats  # (file, line, name) -> (_, calls, ...)
            yield {"probe": "numpy_dispatch", "op": label, "N": N, "T": T,
                   "calls": sum(v[1] for v in stats.values()),
                   "numpy_py_calls": sum(v[1] for (path, _, _), v in stats.items()
                                         if path.startswith(numpy_py) and path.endswith(".py")),
                   **host()}


PROBES = {"reveal_scan_work": reveal_scan_work, "numpy_dispatch": numpy_dispatch}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("name", choices=sorted(PROBES))
    p.add_argument("--smallest", action="store_true", help="run at the smoke size")
    args = p.parse_args(argv)
    for line in PROBES[args.name](args.smallest):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
