"""The mpmath reference against closed forms, and the benchmark's own checks."""

import json
import math

import pytest

import oracle
import workloads


def _pencil(name):
    return json.loads((workloads.PENCILS / f"{name}.json").read_text())


def test_e1_second_derivative_closed_form():
    norms = oracle.reference_norms(_pencil("e1"), [1.0], 10.0)
    assert norms[(2, 2)] == pytest.approx(2.4453401465756945, rel=1e-14)


@pytest.mark.parametrize("xi, lam", [(0.7, 3.0), (1e-2, 1e3), (1e2, 1.0)])
def test_double_root_closed_form(xi, lam):
    # w_1 = (1 + s t) e^(-s t) with s = sqrt(|xi'|^2 + lambda^2).
    s = math.hypot(xi, lam)
    norms = oracle.reference_norms(_pencil("double"), [xi], lam)
    assert norms[(1, 0)] == pytest.approx(math.sqrt(5.0 / (4.0 * s)), rel=1e-14)


def test_boundary_defect_matches_library():
    pl = workloads.import_pencilab()
    p = pl.pencil_from_dict(_pencil("e1_n3"))
    for sol in pl.solve(p, [0.3, -2.0], 40.0):
        assert workloads.boundary_defect(sol, p.m) == pytest.approx(
            pl.boundary_defect(sol), abs=1e-15)


def test_seed_fixes_the_inputs():
    digests = []
    for seed in (5, 5, 6):
        wl = workloads.setup("halfline-points", seed, small=True)
        wl.close()
        digests.append(wl.inputs["digest"])
    assert digests[0] == digests[1] != digests[2]
