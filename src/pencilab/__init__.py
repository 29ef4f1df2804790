"""Newton-polygon calculus for parameter-elliptic operator pencils.

Polygon geometry and weight functions, ellipticity and degeneration
checks, symbol roots and their large-parameter grouping, explicit
half-line Dirichlet solutions, and numerical certification sweeps for
the associated two-sided estimates.
"""

__version__ = "0.1.0"   # before the submodules: verify reports it

from .errors import (BandError, EllipticityError, OutOfRangeError,
                     PencilabError, PencilFormatError, UnsupportedShapeError)
from .polygon import NewtonPolygon, Side, build_polygon, principal_part, r_degree
from .weights import (HomogeneousWeight, ProductWeight, from_polygon,
                      kappa_index, lemma32_integral, shift,
                      trace_weight_quadrature, xi_product_eval, xi_sum_eval)
from .pencil import (GridSpec, Pencil, Term, check_lemma21,
                     check_regular_degeneration, group_roots, load_pencil,
                     pencil_from_dict, pencil_to_dict, tau_polynomial,
                     tau_roots)
from .halfline import (ExpPolySolution, ExpPolyTerm, boundary_defect,
                       contour_eval, eval_deriv, l2_norm_deriv, ode_residual,
                       solve, solve_from_roots, split_by_group)
from .catalog import BUILTIN, agmon_pencil, broken_pencil, e1_pencil
from .verify import SweepReport, run_suite, write_csv

