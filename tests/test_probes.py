"""Smoke runs of ``tools/probes.py`` at its smallest size, so that no probe rots."""

import json

import numpy as np
import probes

from commgate import nonmyopic


def test_reveal_scan_work_smallest(capsys):
    names = (nonmyopic.integrate, nonmyopic._solve_block, nonmyopic._OneTimeSystem.residuals)
    assert probes.main(["reveal_scan_work", "--smallest"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["prior"], line["N"], line["T"]) for line in lines] == [
        ("hotel", 2, 4), ("beta:2,5", 2, 4)]
    for line in lines:
        # no rescue: one call per round, and two per welfare block
        assert line["bisection_rescues"] == 0 and line["blocks"] == 1
        assert line["integrate_calls"] == line["rounds"] + 2 * line["blocks"]
        # each of the T - 1 candidates takes at most one iteration a round
        assert line["rounds"] <= line["iterations"] <= (line["T"] - 1) * line["rounds"]
        # depth 0 alone takes five nodes a piece, and each call has a piece
        assert line["integrand_evals"] >= 5 * line["integrate_calls"]
        assert line["numpy"] == np.__version__ and isinstance(line["simd"], list)
    # the probe puts back every name it wrapped
    assert (nonmyopic.integrate, nonmyopic._solve_block,
            nonmyopic._OneTimeSystem.residuals) == names


def test_numpy_dispatch_smallest(capsys):
    assert probes.main(["numpy_dispatch", "--smallest"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["op"], line["N"], line["T"]) for line in lines] == [
        ("reveal_hotel", 2, 4), ("reveal_beta", 2, 4)]
    for line in lines:
        assert 0 < line["numpy_py_calls"] < line["calls"]
        assert line["numpy"] == np.__version__ and isinstance(line["simd"], list)
