"""Pinned outputs of the pencil files in tests/pencils and perfbench/pencils.

Each tests/golden/<pencil>.json holds `pencilab ellipticity --format json`
with its exit code at the default grid and at --grid-angular 97, and
`pencilab degeneration`'s exit code and k1.  The test compares verdicts,
exit codes and every other non-number exactly, and numbers to 1e-12
relative.  A change that moves a pinned number on purpose rewrites the
files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which numbers moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from pencilab.cli import run
from reference import BENCHMARK_PENCILS, PENCILS

GOLDEN = Path(__file__).resolve().parent / "golden"
PENCIL_FILES = sorted([*PENCILS.glob("*.json"), *BENCHMARK_PENCILS.glob("*.json")])
ELLIPTICITY_GRIDS = {"default": [], "grid_angular_97": ["--grid-angular", "97"]}
REL = 1e-12


def _run_json(argv: list[str]):
    """Exit code and parsed standard output of `pencilab <argv> --format json`
    (None when the command prints nothing, as on an error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv + ["--format", "json"])
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def pinned(path: Path) -> dict:
    """What tests/golden/<pencil>.json holds for the pencil file at path."""
    result = {"ellipticity": {}}
    for name, extra in ELLIPTICITY_GRIDS.items():
        code, output = _run_json(["ellipticity", str(path), *extra])
        result["ellipticity"][name] = {"exit": code, "output": output}
    code, output = _run_json(["degeneration", str(path)])
    result["degeneration"] = {"exit": code,
                              "k1": None if output is None else output["k1"]}
    return result


def _mismatches(got, want, where: str = "") -> list[str]:
    """Where got and want differ: bools, strings, None and ints exactly,
    floats to REL relative (equal infinities and NaN with NaN agree)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if type(want) is float and type(got) in (float, int):
        if (math.isnan(want) and math.isnan(got)) or math.isclose(got, want, rel_tol=REL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("path", PENCIL_FILES, ids=lambda p: p.stem)
def test_pinned_outputs(path):
    want = json.loads((GOLDEN / f"{path.stem}.json").read_text())
    assert _mismatches(pinned(path), want) == []


def test_every_pencil_file_is_pinned():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == \
        sorted(p.stem for p in PENCIL_FILES)


def test_mismatches_compare_numbers_to_the_relative_tolerance():
    assert _mismatches({"x": [1.0, True]}, {"x": [1.0 + 1e-13, True]}) == []
    assert _mismatches({"x": 1.0}, {"x": 1.0 + 1e-11}) == [".x: 1.0 != 1.00000000001"]
    assert _mismatches(True, 1) and _mismatches(0, 0.0) == [] and _mismatches(1, True)
    assert _mismatches(0.0, 1e-300) and _mismatches([1.0], [1.0, 2.0])


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for path in PENCIL_FILES:
        (GOLDEN / f"{path.stem}.json").write_text(
            json.dumps(pinned(path), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
