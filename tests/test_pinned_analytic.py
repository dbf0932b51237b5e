"""Bit-for-bit pins of the analytic layer's outputs.

``pinned_analytic.json`` holds, per case, every ``scan_comm_times`` row as
its welfare's ``float.hex`` and the first 16 hex digits of the sha256 of the
row's thresholds, residuals and diagnostics, and on two priors the
``welfare_centralized`` report and every ``scan_single_window`` row as
``float.hex``.  The benchmark's digests see ``%.12g`` CSVs only; these pins
see every bit.  Work on the quadrature layer, the priors and the threshold
kernels must keep them as they are; only an announced change of a computed
value may re-record them, with

    PYTHONPATH=src python3 tests/test_pinned_analytic.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from commgate.dataset import fit_reward_cdf, load_ratings
from commgate.distributions import RewardDistribution
from commgate.myopic import scan_single_window, welfare_centralized
from commgate.nonmyopic import scan_comm_times

PINS = Path(__file__).with_name("pinned_analytic.json")
HOTEL_CSV = Path(__file__).parent.parent / "data" / "hotel_ratings.csv"

# (prior, N, T); beta(2,50) at T=20 takes the G-frozen sweep fallback
SCAN_CASES = {
    "hotel_50_50": ("hotel", 50, 50),
    "hotel_5_14": ("hotel", 5, 14),
    "beta2_5_20_40": ("beta:2,5", 20, 40),
    "uniform_5_12": ("uniform", 5, 12),
    "beta2_50_30_20": ("beta:2,50", 30, 20),
    "beta0.7_0.9_8_30": ("beta:0.7,0.9", 8, 30),
}
WINDOW_CASES = {
    "beta2_5_20_40": ("beta:2,5", 20, 40),
    "hotel_50_50": ("hotel", 50, 50),
}


def prior(name, hotel):
    if name == "hotel":
        return hotel
    if name == "uniform":
        return RewardDistribution.uniform()
    a, b = name.removeprefix("beta:").split(",")
    return RewardDistribution.beta(float(a), float(b))


def scan_record(d, N, T):
    """One ``[welfare hex, digest]`` per ``scan_comm_times`` row."""
    rows = []
    for T1, welfare, seq in scan_comm_times(d, N, T):
        h = hashlib.sha256(str(T1).encode())
        if seq is not None:
            h.update(seq.values.astype("<f8").tobytes())
            h.update(seq.residuals.astype("<f8").tobytes())
            h.update(repr(sorted(seq.diagnostics.items())).encode())
        rows.append([welfare.hex(), h.hexdigest()[:16]])
    return rows


def window_record(d, N, T):
    report = welfare_centralized(d, N, T)
    return {
        "centralized": [report.total_welfare.hex(), report.expected_exploration_slots.hex()],
        "scan": [welfare.hex() for _, welfare in scan_single_window(d, N, T)],
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_scan_comm_times_pinned(case, pins, hotel_dist):
    name, N, T = SCAN_CASES[case]
    assert scan_record(prior(name, hotel_dist), N, T) == pins["scan"][case]


@pytest.mark.parametrize("case", list(WINDOW_CASES))
def test_single_window_pinned(case, pins, hotel_dist):
    name, N, T = WINDOW_CASES[case]
    assert window_record(prior(name, hotel_dist), N, T) == pins["window"][case]


def _record():
    hotel = fit_reward_cdf(load_ratings(HOTEL_CSV))
    scan = {case: scan_record(prior(name, hotel), N, T) for case, (name, N, T) in SCAN_CASES.items()}
    window = {case: window_record(prior(name, hotel), N, T)
              for case, (name, N, T) in WINDOW_CASES.items()}
    # one row or list per line keeps the diff of a re-record readable
    lines = ["{", ' "scan": {']
    for i, (case, rows) in enumerate(scan.items()):
        body = ",\n".join(f"   {json.dumps(r)}" for r in rows)
        lines.append(f'  "{case}": [\n{body}\n  ]' + ("," if i < len(scan) - 1 else ""))
    lines += [" },", ' "window": {']
    for i, (case, rec) in enumerate(window.items()):
        lines.append(f'  "{case}": {{\n   "centralized": {json.dumps(rec["centralized"])},\n'
                     f'   "scan": {json.dumps(rec["scan"])}\n  }}'
                     + ("," if i < len(window) - 1 else ""))
    lines += [" }", "}"]
    text = "\n".join(lines) + "\n"
    assert json.loads(text) == {"scan": scan, "window": window}
    PINS.write_text(text)


if __name__ == "__main__":
    sys.exit(_record())
