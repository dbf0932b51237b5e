#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks ``reveal`` and ``window`` against.

Run from the repository root at the commit whose outputs are the reference::

    python3 perfbench/record_reference.py

It runs each workload's command list once and writes every op's choice line
and scan rows to ``perfbench/reference.json``.  ``oracle`` has no recorded
reference: its deterministic runs are checked against the closed forms and
the others by invariants.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.prepare()
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT))
    reference = {}
    try:
        for workload in ("reveal", "window"):
            bench = run.Bench(workload, 0, work, trace=False)
            bench.setup_once()
            rep = bench.run_rep()
            bad = [oc for oc in rep.outcomes if oc.label not in rep.records]
            if bad:
                print(f"error: {[(oc.label, oc.code, oc.error) for oc in bad]}", file=sys.stderr)
                return 1
            reference[workload] = rep.records
    finally:
        shutil.rmtree(work, ignore_errors=True)
        run.WORK_ROOT.rmdir()
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
