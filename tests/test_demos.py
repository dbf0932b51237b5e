"""Demos reproduce their committed outputs byte for byte.

Together the four demos write the six files of ``demos/output/``; demos 02
and 04 take a few seconds each and are marked ``slow``.  Each demo runs as
a copy under ``tmp_path``, next to a copy of ``data/``, so that it writes
into ``tmp_path/demos/output`` and the committed files in ``demos/output/``
stay as they are.
"""

import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("demo, outputs", [
    ("01_reward_priors.py", ["hotel_prior.csv"]),
    ("03_forward_looking_thresholds.py", ["threshold_sequences.svg", "welfare_vs_reveal_slot.csv"]),
    pytest.param("02_myopic_windows.py", ["myopic_gain_vs_horizon.svg"], marks=pytest.mark.slow),
    pytest.param("04_hotel_experiment.py", ["hotel_trajectories.svg", "hotel_gain_sweep.csv"],
                 marks=pytest.mark.slow),
])
def test_demo_reproduces_committed_outputs(tmp_path, capsys, demo, outputs):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    (tmp_path / "demos").mkdir()
    script = shutil.copy(ROOT / "demos" / demo, tmp_path / "demos" / demo)
    runpy.run_path(str(script), run_name="__main__")
    for name in outputs:
        got = (tmp_path / "demos" / "output" / name).read_bytes()
        assert got == (ROOT / "demos" / "output" / name).read_bytes(), name
