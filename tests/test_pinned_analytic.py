"""Bit-for-bit pins of the analytic layer's outputs.

``golden/analytic/`` holds, per case, every ``scan_comm_times`` row as its
``T1``, its welfare and the first 16 hex digits of the sha256 of the row's
thresholds, residuals and diagnostics, and on two priors the
``welfare_centralized`` report and every ``scan_single_window`` row.  Each
welfare is written as ``repr(float)``, which reads back to the same double,
so the text pins every bit.  The benchmark's checks see ``%.12g`` CSVs only.
The records are those of ``tools/record_golden.py``; work on the quadrature
layer, the priors and the threshold kernels must keep them as they are, and
only an announced change of a computed value may re-record them, with

    python3 tools/record_golden.py tests/golden
"""

import pytest
import record_golden as golden


@pytest.mark.parametrize("case", list(golden.SCAN_CASES))
def test_scan_comm_times_pinned(case, hotel_dist):
    diff = golden.diff(*golden.scan_pin(case, hotel_dist))
    assert not diff, diff


@pytest.mark.parametrize("case", list(golden.WINDOW_CASES))
def test_single_window_pinned(case, hotel_dist):
    diff = golden.diff(*golden.window_pin(case, hotel_dist))
    assert not diff, diff
