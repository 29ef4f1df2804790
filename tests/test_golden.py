"""Pinned outputs of the pencil files in tests/pencils and perfbench/pencils.

Each tests/golden/<pencil>.json holds `pencilab ellipticity --format json`
with its exit code at the default grid and at --grid-angular 97, and
`pencilab degeneration`'s exit code and k1.  The files of the pencils in
POINT_QUERIES also hold, at each of their points, `pencilab roots` and
`pencilab solve` with `--format json`: the exit code, the output and the
message an error prints.  The files of the nine pencils in VERIFY_PENCILS
hold `pencilab verify --suite all --check-refinement` at --density 1 and 2:
the exit code and summary.json without its wall times (`runtime_s`) and
its `provenance`, that is every suite's verdict, reasons, band, witnesses,
extras (C, C_point, the Puiseux and split slopes, `refinement_drift`) and
`config_hash`.  broken and the sign pencils are left out of that: under
`--suite all` they exit 2 (defects D12 and D16 of ROADMAP), and pinning
that exit would pin the defects.  The test compares verdicts, exit codes,
messages and every other non-number exactly, and numbers to 1e-12
relative; a point query's numbers may also differ by 1e-12 times the
largest in their output.  A change that moves a pinned number on purpose rewrites the
files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which numbers moved and why.

The files hold what numpy's default CPU dispatch gives, and some of their
numbers follow its SIMD kernels.  numpy's own switch
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" turns those
kernels off for the process it is set in.  Under it (numpy 2.4.6, 2-CPU
AVX-512 Xeon) 10 of the 19 files fail.  On eight of the nine VERIFY_PENCILS
(all but n1) the verify suites' own kernels move numbers by more than
1e-12: asymptotics' bounded_residuals, puiseux_slope and refinement_drift,
prop52's C_point and refinement_drift, and trace's quad_err_max,
refinement_drift and witness_min.  The n = 3 directions of
sphere_directions (np.arccos, np.sin, np.cos) move gen_n3's witness_ii and
sign_n3's witness_iii at 97 angles.  The direction tables themselves do
not move: they are products of doubles, which round the same in every
kernel.  No tolerance here allows for the switch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from pencilab.cli import run
from reference import BENCHMARK_PENCILS, PENCILS

GOLDEN = Path(__file__).resolve().parent / "golden"
PENCIL_FILES = sorted([*PENCILS.glob("*.json"), *BENCHMARK_PENCILS.glob("*.json")])
ELLIPTICITY_GRIDS = {"default": [], "grid_angular_97": ["--grid-angular", "97"]}
REL = 1e-12
# (--xi-prime, --lam) of the point queries that CI runs, by pencil file:
# each benchmark pencil at lambda = 0, 30 and 1000 (e1_n3 at xi' = (0.7,
# 0.2)), m3, the one-variable n1 at lambda > 0, e1 at a point scaled down,
# and the three points where e1 exits 2 (lambda < 0, an overflowing symbol,
# xi' = lambda = 0).
POINT_QUERIES = {
    **{name: [("1.0", lam) for lam in ("0", "30", "1000")]
       for name in ("e1", "agmon", "double", "near", "m3")},
    "e1_n3": [("0.7,0.2", lam) for lam in ("0", "30", "1000")],
    "n1": [("", lam) for lam in ("1", "30", "1000")],
}
POINT_QUERIES["e1"] += [("1e-8", "1e-3"), ("1", "-1"), ("1", "1e300"), ("0", "0")]
# The nine pencils that CI runs `verify --suite all --check-refinement` on.
VERIFY_PENCILS = ("e1", "agmon", "e1_n3", "double", "near", "n1", "m3", "e1_n4", "cplx")


def _run_json(argv: list[str]):
    """Exit code, parsed standard output (None when the command prints
    nothing, as on an error) and standard error of `pencilab <argv>
    --format json`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--format", "json"])
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None, err.getvalue()


def pinned(path: Path) -> dict:
    """What tests/golden/<pencil>.json holds for the pencil file at path."""
    result = {"ellipticity": {}}
    for name, extra in ELLIPTICITY_GRIDS.items():
        code, output, _ = _run_json(["ellipticity", str(path), *extra])
        result["ellipticity"][name] = {"exit": code, "output": output}
    code, output, _ = _run_json(["degeneration", str(path)])
    result["degeneration"] = {"exit": code,
                              "k1": None if output is None else output["k1"]}
    for xi, lam in POINT_QUERIES.get(path.stem, []):
        point = result.setdefault("points", {})[f"--xi-prime {xi} --lam {lam}"] = {}
        for cmd in ("roots", "solve"):
            code, output, error = _run_json(
                [cmd, str(path), "--xi-prime", xi, "--lam", lam])
            point[cmd] = {"exit": code, "output": output, "error": error}
    if path.stem in VERIFY_PENCILS:
        result["verify"] = {f"density_{d}": _verify_summary(path, d) for d in (1, 2)}
    return result


def _verify_summary(path: Path, density: int) -> dict:
    """Exit code and summary.json, without each suite's `runtime_s` and
    `provenance`, of `pencilab verify <path> --suite all --check-refinement
    --density <density>`."""
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(["verify", str(path), "--suite", "all", "--check-refinement",
                    "--density", str(density), "--out", out])
        summary = json.loads((Path(out) / "summary.json").read_text())
    for suite in summary.values():
        del suite["runtime_s"], suite["provenance"]
    return {"exit": code, "summary": summary}


def _mismatches(got, want, where: str = "", floor: float = 0.0) -> list[str]:
    """Where got and want differ: bools, strings, None and ints exactly,
    floats to REL relative or within `floor` (equal infinities and NaN with
    NaN agree)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want
                for m in _mismatches(got[k], want[k], f"{where}.{k}", floor)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]", floor)]
    if type(want) is float and type(got) in (float, int):
        if ((math.isnan(want) and math.isnan(got))
                or math.isclose(got, want, rel_tol=REL, abs_tol=floor)):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _largest(obj) -> float:
    """The largest |float| in a parsed JSON value, 0.0 if it holds none."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return max(map(_largest, obj), default=0.0)
    return abs(obj) if type(obj) is float else 0.0


@pytest.mark.parametrize("path", PENCIL_FILES, ids=lambda p: p.stem)
def test_pinned_outputs(path):
    # The eigensolve gives roots with an error of a few eps times the
    # largest, so a number of a point query below REL times the largest in
    # its output (the real part of an imaginary root, a residual of 1e-16)
    # is rounding, whose bits depend on the LAPACK build: it is compared
    # within that floor.
    want = json.loads((GOLDEN / f"{path.stem}.json").read_text())
    got = pinned(path)
    points, want_points = got.pop("points", {}), want.pop("points", {})
    assert _mismatches(got, want) == []
    assert points.keys() == want_points.keys()
    for point, commands in want_points.items():
        for cmd, w in commands.items():
            floor = REL * _largest(w["output"])
            assert _mismatches(points[point][cmd], w, f"{point} {cmd}", floor) == []


def test_every_pencil_file_is_pinned():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == \
        sorted(p.stem for p in PENCIL_FILES)


def test_mismatches_compare_numbers_to_the_relative_tolerance():
    assert _mismatches({"x": [1.0, True]}, {"x": [1.0 + 1e-13, True]}) == []
    assert _mismatches({"x": 1.0}, {"x": 1.0 + 1e-11}) == [".x: 1.0 != 1.00000000001"]
    assert _mismatches(True, 1) and _mismatches(0, 0.0) == [] and _mismatches(1, True)
    assert _mismatches(0.0, 1e-300) and _mismatches([1.0], [1.0, 2.0])
    assert _mismatches({"x": [3e-13]}, {"x": [-2e-23]}, floor=1e-9) == []
    assert _mismatches({"x": [3e-9]}, {"x": [-2e-23]}, floor=1e-9)
    assert _largest({"a": [[1.0, -3.0]], "b": True, "c": None, "d": 7}) == 3.0


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for path in PENCIL_FILES:
        (GOLDEN / f"{path.stem}.json").write_text(
            json.dumps(pinned(path), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
