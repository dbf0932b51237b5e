#!/usr/bin/env python3
"""Named probes behind the work figures that ROADMAP.md and CHANGES.md quote.

Each probe runs the package from this checkout's ``src/`` and prints one JSON
line per case: the case's inputs, what the probe measured, and the host facts
that a figure can depend on (numpy's version and the SIMD features its
kernels dispatch to).  A probe changes no file; it wraps package names for its
own run only and puts them back.

    python3 tools/probes.py reveal_scan_work              # the sizes the figures quote
    python3 tools/probes.py reveal_scan_work --smallest   # the smoke size the tests run

Probes:

``reveal_scan_work``
    The work of ``scan_comm_times`` on the two scans of the benchmark's
    ``reveal`` workload: the hotel prior fitted from
    ``data/hotel_ratings.csv`` at N=50, T=50 and beta(2,5) at N=20, T=40
    (``--smallest``: both at N=2, T=4).  Per scan: the ``integrate`` calls,
    the lockstep's Newton rounds (calls of ``_OneTimeSystem.residuals``), its
    blocks (calls of ``_solve_block``), and the summed solver iterations and
    bisection rescues of the rows.

Usage: python3 tools/probes.py NAME [--smallest]
"""

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from commgate import nonmyopic  # noqa: E402
from commgate.dataset import fit_reward_cdf, load_ratings  # noqa: E402
from commgate.distributions import RewardDistribution  # noqa: E402


def host():
    """numpy's version and the SIMD features that its kernels dispatch to here."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    return {"numpy": np.__version__,
            "simd": [f for f in umath.__cpu_baseline__ + umath.__cpu_dispatch__ if features.get(f)]}


@contextlib.contextmanager
def counting(owner, name, counts, key):
    """Count in ``counts[key]`` the calls of ``owner.<name>`` until the block exits."""
    wrapped = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return wrapped(*args, **kwargs)

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, wrapped)


def reveal_scan_work(smallest=False):
    hotel = fit_reward_cdf(load_ratings(ROOT / "data" / "hotel_ratings.csv"))
    scans = [("hotel", hotel, 50, 50), ("beta:2,5", RewardDistribution.beta(2, 5), 20, 40)]
    for prior, d, N, T in scans:
        if smallest:
            N, T = 2, 4
        counts = {"integrate_calls": 0, "rounds": 0, "blocks": 0}
        with (counting(nonmyopic, "integrate", counts, "integrate_calls"),
              counting(nonmyopic._OneTimeSystem, "residuals", counts, "rounds"),
              counting(nonmyopic, "_solve_block", counts, "blocks")):
            rows = nonmyopic.scan_comm_times(d, N, T)
        diagnostics = [seq.diagnostics for _, _, seq in rows]
        yield {"probe": "reveal_scan_work", "prior": prior, "N": N, "T": T, **counts,
               "iterations": sum(diag["iterations"] for diag in diagnostics),
               "bisection_rescues": sum(diag["bisection_rescues"] for diag in diagnostics),
               **host()}


PROBES = {"reveal_scan_work": reveal_scan_work}


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
