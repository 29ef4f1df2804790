"""Workloads of the pencilab benchmark: inputs, operations and output checks.

A workload is a fixed list of operations; one pass runs each once.  Every
operation is a closure that looks pencilab's functions up at call time, so
the tracer's wrappers see the calls.  Its check runs outside the timed
region and returns the kinds of check that failed (empty when all pass).

Some operations fail because of a known defect of pencilab 0.1.0.  Such an
operation carries `known`, the failure kinds the defect produces: they
still count as failed operations, but only a failure outside that set
makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PENCILS = HERE / "pencils"

WORKLOADS = ("certify", "ellipticity", "halfline-points")

# halfline-points: the same ranges as the thm41 sweep.
FAMILIES = ("e1", "e1_n3", "double", "near")
POINTS_PER_FAMILY = 50
XI_DECADES = (-2.0, 2.0)
LAM_DECADES = (0.0, 3.0)
NORM_RTOL = 1e-6
BOUNDARY_TOL = 1e-8

# Known defects of pencilab 0.1.0, by the failure kind they produce.
D1 = {"wrong_verdict": "D1: e1 reported not elliptic at the 720 grid"}
_SPLIT = ("confluent roots: np.roots splits a double root above "
          "CLUSTER_TOL, so the solution is built from two close poles")
CONFLUENT = {"norm_miss": _SPLIT, "boundary_defect": _SPLIT}


def import_pencilab():
    """Import pencilab from this checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pencilab
    import pencilab.cli
    where = Path(pencilab.__file__).resolve().parent
    if where != src / "pencilab":
        raise ImportError(f"pencilab imported from {where}, not from {src}")
    return pencilab


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    inputs: dict
    workdir: Path
    reference: Callable[[], None] | None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _cli(pl, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return pl.cli.run(argv)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# certify

class _VerifyCheck:
    """Exit 0, every suite `pass`, CSVs byte-identical to the first pass."""

    def __init__(self, out: Path):
        self.out = out
        self.first = None

    def __call__(self, code) -> list:
        failed = []
        summary = self.out / "summary.json"
        if code != 0 or not summary.is_file():
            failed.append("wrong_verdict")
        else:
            verdicts = [s["verdict"] for s in json.loads(summary.read_text()).values()]
            if not verdicts or any(v != "pass" for v in verdicts):
                failed.append("wrong_verdict")
        digests = {p.name: _digest(p) for p in sorted(self.out.glob("*.csv"))}
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            failed.append("csv_mismatch")
        shutil.rmtree(self.out, ignore_errors=True)   # next pass starts clean
        return failed


def _certify(pl, rng, small: bool, workdir: Path):
    names = ["e1", "agmon"]
    rng.shuffle(names)
    extra = ["--grid-decades", "1"] if small else []
    ops = []
    for name in names:
        out = workdir / name
        argv = ["verify", str(PENCILS / f"{name}.json"), "--suite", "all",
                "--check-refinement", "--out", str(out)] + extra
        ops.append(Op(f"verify:{name}", lambda argv=argv: _cli(pl, argv),
                      _VerifyCheck(out)))
    warmup = ["verify", str(PENCILS / "e1.json"), "--suite", "all",
              "--grid-decades", "1", "--out", str(workdir / "warmup")]
    return ops, [lambda: _cli(pl, warmup)], {"pencils": names}, None


# ---------------------------------------------------------------------------
# ellipticity

def _ellipticity(pl, rng, small: bool, workdir: Path):
    # The grid is pinned to the CLI default of pencilab 0.1.0, so that a
    # change of defaults does not change the work measured.
    size = 24 if small else 720
    grid = pl.GridSpec(angular=size, directions=size, tol=1e-6)
    e1_path = str(PENCILS / "e1.json")
    e1 = pl.load_pencil(e1_path)
    broken = pl.load_pencil(PENCILS / "broken.json")
    argv = ["ellipticity", e1_path, "--grid-angular", str(size)]

    def broken_check(rep):
        return [] if (not rep.cond_ii and not rep.n_elliptic) else ["wrong_verdict"]

    def remark22_check(flags):
        ok = flags["even_order"] and flags["strongly_elliptic"]
        return [] if ok else ["wrong_verdict"]

    ops = [
        Op("ellipticity-cli:e1", lambda: _cli(pl, argv),
           lambda code: [] if code == 0 else ["wrong_verdict"], known=D1),
        Op("check_lemma21:broken", lambda: pl.check_lemma21(broken, grid),
           broken_check),
        Op("remark22_checks:e1", lambda: pl.pencil.remark22_checks(e1, grid),
           remark22_check),
    ]
    rng.shuffle(ops)
    small_grid = pl.GridSpec(angular=24, directions=24, tol=1e-6)
    warmups = [lambda: _cli(pl, ["ellipticity", e1_path, "--grid-angular", "24"]),
               lambda: pl.check_lemma21(broken, small_grid),
               lambda: pl.pencil.remark22_checks(e1, small_grid)]
    return ops, warmups, {"grid": size, "order": [op.name for op in ops]}, None


# ---------------------------------------------------------------------------
# halfline-points

def boundary_defect(sol, m: int) -> float:
    """max_k |D^k w_j(0) - delta_(k+1, j)|, evaluated here from the terms.

    For a term poly(t) e^(i tau t) with D = -i d/dt,
    D^k (t^q e^(i tau t)) at t = 0 is k!/(k-q)! tau^(k-q) (-i)^q for q <= k.
    """
    worst = 0.0
    for k in range(m):
        val = 0j
        for term in sol.terms:
            fall = 1.0
            for q, c in enumerate(term.poly[: k + 1]):
                val += c * fall * term.tau ** (k - q) * (-1j) ** q
                fall *= k - q
        worst = max(worst, abs(val - (1.0 if k + 1 == sol.j else 0.0)))
    return worst


class _PointCheck:
    """Boundary data, grouping sizes and norms against the mpmath reference."""

    def __init__(self, pencil):
        self.pencil = pencil
        self.ref = None

    def __call__(self, result) -> list:
        grouping, sols, norms = result
        p = self.pencil
        failed = []
        if (len(grouping.group_bounded) != p.mu
                or len(grouping.group_large) != p.m - p.mu
                or len(sols) != p.m):
            failed.append("bad_grouping")
        if any(boundary_defect(s, p.m) > BOUNDARY_TOL for s in sols):
            failed.append("boundary_defect")
        for key, want in self.ref.items():
            got = norms.get(key)
            if got is None or not abs(got - want) <= NORM_RTOL * want:
                failed.append("norm_miss")
                break
        return failed


def _stratified(rng, count: int, interval) -> list:
    """`count` uniform draws from `interval`, one from each of `count` equal
    strata in random order (a Latin hypercube across the two coordinates).
    Pools of different seeds then hold the same mix of easy and hard points,
    so their cost differs less than with independent draws."""
    lo, hi = interval
    u = (rng.permutation(count) + rng.uniform(size=count)) / count
    return (lo + (hi - lo) * u).tolist()


def _halfline_points(pl, rng, small: bool, workdir: Path):
    import numpy as np

    per_family = 2 if small else POINTS_PER_FAMILY
    ops, points = [], []
    for fam in FAMILIES:
        data = json.loads((PENCILS / f"{fam}.json").read_text())
        p = pl.pencil_from_dict(data)
        xi_exps = _stratified(rng, per_family, XI_DECADES)
        lam_exps = _stratified(rng, per_family, LAM_DECADES)
        for k in range(per_family):
            radius = 10.0 ** xi_exps[k]
            lam = float(10.0 ** lam_exps[k])
            direction = rng.standard_normal(p.n - 1)
            xi = radius * direction / np.linalg.norm(direction)
            points.append((fam, data, xi, lam))

            def run(p=p, xi=xi, lam=lam):
                grouping = pl.group_roots(p, xi, lam)
                sols = pl.solve(p, xi, lam)
                norms = {(s.j, l): pl.l2_norm_deriv(s, l)
                         for s in sols for l in range(p.m + 1)}
                return grouping, sols, norms

            known = CONFLUENT if fam in ("double", "near") else {}
            ops.append(Op(f"point:{fam}:{k}", run, _PointCheck(p), known))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    points = [points[i] for i in order]

    def reference():
        import oracle
        for op, (_, data, xi, lam) in zip(ops, points):
            op.check.ref = oracle.reference_norms(data, xi, lam)

    blob = json.dumps([(f, xi.tolist(), lam) for f, _, xi, lam in points])
    inputs = {"points": len(points), "per_family": per_family,
              "digest": hashlib.sha256(blob.encode()).hexdigest()[:16]}
    return ops, [ops[0].run], inputs, reference


# ---------------------------------------------------------------------------

def setup(name: str, seed: int, small: bool = False) -> Workload:
    """Import pencilab, load the pencils, build the inputs, warm up once.

    This is what `setup_s` times.  The mpmath reference is not part of it:
    call `Workload.reference`, when it is set, afterwards.
    """
    pl = import_pencilab()
    import numpy as np

    rng = np.random.default_rng(seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        build = {"certify": _certify, "ellipticity": _ellipticity,
                 "halfline-points": _halfline_points}[name]
        ops, warmups, inputs, reference = build(pl, rng, small, workdir)
        for warm in warmups:
            warm()
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return Workload(name, seed, ops, inputs, workdir, reference)
