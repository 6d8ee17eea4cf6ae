"""CLI output contract: every file, stdout and exit code of a fixed argv set.

``golden_outputs.json`` holds, per argv, the SHA-256 of each file the
command writes and of its stdout, its exit code, and a summary of each CSV
column (row count; min, max and sum to 17 digits for a numeric column, the
distinct values for a text one).  Each argv runs twice through ``cli.main``
with a relative ``--out``, so stdout names no temporary directory; the two
runs must agree with each other and with the stored record.  A mismatch
names each changed column and its largest absolute and relative change.

The outputs are pinned for the numpy version stored in the file; on any
other version the test fails naming both, so a toolchain change is seen.

A change that moves an output on purpose regenerates the file, never by
hand:

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from salpeter1d import cli

GOLDEN = Path(__file__).with_name("golden_outputs.json")

ARGVS = (
    ("figure1",),
    ("figure2",),
    ("covariance",),
    ("continuity",),
    ("dirac-check",),
    ("series-check",),
    ("figure1", "--svg"),
    ("figure2", "--svg"),
    ("covariance", "--kernel", "literal:1"),
    ("covariance", "--velocity", "0.999"),
    ("continuity", "--kernel", "born", "--grid-points", "1024"),
    # a box mode above the grid's Nyquist fraction: exit 2, no file
    ("figure1", "--state-n", "3000"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _column_summary(cells: list[str]) -> dict:
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return {"rows": len(cells), "values": sorted(set(cells))}
    return {
        "rows": len(cells),
        **{
            stat: "%.17g" % float(getattr(np, stat)(values))
            for stat in ("min", "max", "sum")
        },
    }


def _csv_summary(text: str) -> dict:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: _column_summary([r[i] for r in rows]) for i, name in enumerate(header)}


def record(argv) -> dict:
    """Run one argv in the current directory, which must be empty."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*argv, "--out", f"{argv[0]}.csv"])
    files = {}
    for path in sorted(Path.cwd().iterdir()):
        data = path.read_bytes()
        files[path.name] = {"sha256": _sha(data)}
        if path.suffix == ".csv":
            files[path.name]["columns"] = _csv_summary(data.decode())
    return {"exit": code, "stdout_sha256": _sha(stdout.getvalue().encode()), "files": files}


def _key(argv) -> str:
    return " ".join(argv)


def _column_moves(want: dict, got: dict) -> list[str]:
    """One line per column whose summary moved: its largest change."""
    lines = []
    for name in sorted(set(want) | set(got)):
        a, b = want.get(name), got.get(name)
        if a == b:
            continue
        if a is None or b is None or "values" in a or a["rows"] != b.get("rows"):
            lines.append(f"  column {name!r}: {a} -> {b}")
            continue
        diffs = [
            (abs(float(b[k]) - float(a[k])), float(a[k])) for k in ("min", "max", "sum")
        ]
        worst_abs = max(d for d, _ in diffs)
        worst_rel = max((d / abs(ref) if ref else math.inf) for d, ref in diffs if d)
        lines.append(
            f"  column {name!r}: largest change {worst_abs:.3g} absolute, "
            f"{worst_rel:.3g} relative (min/max/sum {a} -> {b})"
        )
    return lines


def _mismatch(want: dict, got: dict) -> str:
    lines = []
    if want["exit"] != got["exit"]:
        lines.append(f"  exit code {want['exit']} -> {got['exit']}")
    if want["stdout_sha256"] != got["stdout_sha256"]:
        lines.append("  stdout changed")
    if set(want["files"]) != set(got["files"]):
        lines.append(f"  files {sorted(want['files'])} -> {sorted(got['files'])}")
    for name in sorted(set(want["files"]) & set(got["files"])):
        a, b = want["files"][name], got["files"][name]
        if a["sha256"] != b["sha256"]:
            lines.append(f"  {name} changed")
            lines += _column_moves(a.get("columns", {}), b.get("columns", {}))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def golden():
    stored = json.loads(GOLDEN.read_text())
    assert stored["numpy"] == np.__version__, (
        f"golden outputs were recorded with numpy {stored['numpy']}, this is "
        f"numpy {np.__version__}; regenerate them on purpose (see the module "
        "docstring) and state every change"
    )
    assert set(stored["outputs"]) == {_key(a) for a in ARGVS}
    return stored["outputs"]


@pytest.mark.parametrize("argv", ARGVS, ids=_key)
def test_outputs_match_golden(argv, golden, tmp_path, monkeypatch):
    runs = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        runs.append(record(argv))
    assert runs[0] == runs[1], "two runs differ:\n" + _mismatch(*runs)
    want = golden[_key(argv)]
    assert runs[0] == want, f"{_key(argv)} moved:\n" + _mismatch(want, runs[0])


def _write() -> None:
    outputs = {}
    for argv in ARGVS:
        with tempfile.TemporaryDirectory() as work:
            home = os.getcwd()
            os.chdir(work)
            try:
                outputs[_key(argv)] = record(argv)
            finally:
                os.chdir(home)
    text = json.dumps({"numpy": np.__version__, "outputs": outputs}, indent=1)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    _write()
