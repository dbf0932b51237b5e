"""Byte-identity pin of every CLI output of `tools/record_golden.py`'s matrix.

``golden/cli/`` holds every file that the recorder's fixed matrix of
``fit``, ``optimize``, ``sweep`` and ``simulate`` commands leaves (CSV, SVG,
JSON config, and each command's exit status and stdout).  The test runs the
same matrix into ``tmp_path`` and compares the set of file names and every
file's bytes; a changed file shows as a unified diff of its changed lines.
Only an announced change of an output may re-record the store, with

    python3 tools/record_golden.py tests/golden
"""

import record_golden as golden


def test_cli_outputs_match_listing(tmp_path):
    golden.record_cli(tmp_path)
    got = sorted(p.name for p in tmp_path.iterdir())
    assert got == sorted(p.name for p in (golden.STORE / "cli").iterdir())
    diffs = [golden.diff(f"cli/{name}", (tmp_path / name).read_bytes()) for name in got]
    changed = [d for d in diffs if d]
    assert not changed, f"{len(changed)} of {len(got)} CLI outputs changed:\n" + "".join(changed)
