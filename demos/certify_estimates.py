"""Run the certification sweeps on the built-in pencils and print the bands.

Run as:  python3 demos/certify_estimates.py
"""

from pencilab import agmon_pencil, broken_pencil, e1_pencil
from pencilab.verify import SUITES, run_suites, sweep_multiplier_rn

for label, pencil in (("model pencil |xi|^2(|xi|^2+lambda^2)", e1_pencil()),
                      ("classical second-order pencil", agmon_pencil())):
    print(f"\n=== {label} ===")
    for name, rep in run_suites(SUITES, pencil).items():
        extra = ""
        if "C" in rep.extras:
            extra = f"  C = {rep.extras['C']:.4g}"
        if rep.extras.get("puiseux_slope") is not None:
            extra = f"  root-correction slope = {rep.extras['puiseux_slope']:.3f}"
        print(f"  {name:12s} {rep.verdict:6s} "
              f"band [{rep.min_ratio:.4g}, {rep.max_ratio:.4g}]{extra}")

# A deliberately degenerate lowest-order part makes the whole-space
# a priori constant blow up as the sweep range grows.
print("\n=== degenerate lowest-order part (not elliptic) ===")
for decades in (2, 3, 4):
    rep = sweep_multiplier_rn(broken_pencil(), lam_max=10.0 ** decades)
    print(f"  lambda up to 1e{decades}: C = {rep.extras['C']:.4g} "
          f"({rep.verdict})")
