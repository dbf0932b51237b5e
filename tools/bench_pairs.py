#!/usr/bin/env python3
"""Benchmark two revisions against each other in alternating pairs.

Exports both revisions with ``git archive`` into a fresh directory each, so
neither side starts with a ``__pycache__`` or any file outside the commit,
then runs ``perfbench/run.py`` in each export, one run at a time, for
``--pairs`` pairs: pair 0 runs the base first, pair 1 the head first, and so
on, so that a drift of the host's speed falls on both sides alike.  Writes
``BENCH_<workload>.json`` with both SHAs, every run's environment, summary
and result lines, the per-metric medians of each side, and per metric the
number of pairs in which the head was better (the metric's direction is
read from ``BENCHMARK.json``).  It only drives the harness; it changes
nothing under ``perfbench/``.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --workload reveal \\
        --pairs 6 --seconds 20 --trace 0

The exports go to a temporary directory (under ``$TMPDIR`` if set), removed
at the end.

Usage: python3 tools/bench_pairs.py --base REV --head REV --workload NAME
       [--pairs N] [--seconds S] [--trace 0|1] [--seed K] [--out PATH]
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the committed files of ``rev`` into ``dest``; returns its SHA."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(checkout: Path, args) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its three JSON lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if len(lines) != 3:
        raise SystemExit(f"error: {checkout.name}: expected three JSON lines, got:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    env, summary, result = lines
    return {"exit_code": proc.returncode, "env": env["env"], "summary": summary["summary"],
            "result": result, "stderr": proc.stderr.splitlines()}


def directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="revision measured as the parent")
    p.add_argument("--head", required=True, help="revision measured as the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=6)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, default=None, help="default: BENCH_<workload>.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    out = args.out or ROOT / f"BENCH_{args.workload}.json"

    top = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        checkouts, shas = {}, {}
        for side in ("base", "head"):
            checkouts[side] = top / side
            checkouts[side].mkdir()
            shas[side] = export(getattr(args, side), checkouts[side])
        runs = []
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                run = run_once(checkouts[side], args)
                runs.append({"pair": pair, "side": side, **run})
                wall = run["result"]["metrics"].get("wall_s", {}).get("value")
                print(f"pair {pair} {side}: exit {run['exit_code']}, wall_s {wall}", file=sys.stderr)
    finally:
        shutil.rmtree(top, ignore_errors=True)

    better = directions()
    values = {side: {} for side in ("base", "head")}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values[run["side"]].setdefault(name, []).append(metric["value"])
    medians = {side: {name: statistics.median(v) for name, v in sorted(vals.items())}
               for side, vals in values.items()}
    head_better = {}
    for name in sorted(set(values["base"]) & set(values["head"])):
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        pairs = zip(values["base"][name], values["head"][name])
        head_better[name] = sum(sign * (h - b) < 0 for b, h in pairs)
    record = {
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "trace": args.trace, "seed": args.seed,
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "medians": medians, "head_better_pairs": head_better, "runs": runs,
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
