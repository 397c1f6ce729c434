"""extrapkit: exact exponent calculus for limited-range off-diagonal
extrapolation, and grid-scale verification of the weighted inequalities it
plans (bilinear Hilbert transform, vector-valued and Marcinkiewicz-Zygmund
aggregations).

Layers:

* :mod:`extrapkit.exponents` -- exact extended-rational exponent scalars;
* :mod:`extrapkit.weights` -- A_p / RH_s index algebra, power-weight closed
  forms, dyadic constant estimation;
* :mod:`extrapkit.extrapolation` -- range calculus, case split, certified
  proof exponents, multilinear reduction;
* :mod:`extrapkit.applications` -- bilinear-Hilbert / vector-valued /
  three-parameter / Marcinkiewicz-Zygmund planners;
* :mod:`extrapkit.gridfn` -- grid operators (maximal, Hilbert, truncated
  bilinear Hilbert) and seeded test families;
* :mod:`extrapkit.rdf` -- Rubio de Francia iteration with numeric
  certificates for the constructive majorants;
* :mod:`extrapkit.verifier` -- empirical ratio sweeps with
  stability/divergence verdicts;
* :mod:`extrapkit.cli` -- the `extrapkit` command.
"""

from .exponents import INF, Exponent, conjugate, harmonic_sum
from .extrapolation import (
    Case,
    ExtrapolationRange,
    ProofExponents,
    case_select,
    dual_range,
    multilinear_plan,
    proof_exponents,
    target_exponent,
)
from .grid import Grid
from .gridfn import FamilySpec, GridFunction, TestFamily, bht, hilbert, maximal, make_family, weighted_norm
from .weights import (
    GridWeight,
    PowerWeight,
    WeightClassSpec,
    cjn_index,
    estimate_class_constants,
    power_in_class,
)

__version__ = "0.1.0"
