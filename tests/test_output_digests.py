"""Byte-identity pin of every CLI output of `tools/output_digests.py`.

``output_digests.txt`` holds the script's listing: one sha256 per output
file (CSV, SVG, JSON config, and each command's exit status and stdout) of
its fixed matrix of ``fit``, ``optimize``, ``sweep`` and ``simulate``
commands.  The script runs in a subprocess because it reads its checkout
root from ``sys.argv``.  Only an announced change of an output may
re-record the listing, with

    python3 tools/output_digests.py > tests/output_digests.txt
"""

import difflib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
LISTING = Path(__file__).with_name("output_digests.txt")


def test_cli_outputs_match_listing():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py")],
                         capture_output=True, text=True, check=True)
    expected = LISTING.read_text().splitlines()
    got = run.stdout.splitlines()
    diff = "\n".join(difflib.unified_diff(expected, got, "recorded", "now", lineterm=""))
    assert got == expected, f"CLI outputs changed:\n{diff}"
