"""extrapkit: exact exponent calculus for limited-range off-diagonal
extrapolation, and grid-scale verification of the weighted inequalities it
plans (bilinear Hilbert transform, vector-valued and Marcinkiewicz-Zygmund
aggregations).

Layers, each imported directly as a submodule (the package root imports
nothing):

* :mod:`extrapkit.exponents` -- exact extended-rational exponent scalars,
  the A_p / RH_s class indices and the closed-form power-weight classes;
* :mod:`extrapkit.extrapolation` -- range calculus, case split, certified
  proof exponents, multilinear reduction;
* :mod:`extrapkit.applications` -- bilinear-Hilbert / vector-valued /
  three-parameter / Marcinkiewicz-Zygmund planners;
* :mod:`extrapkit.reports` -- the report envelope and its JSON form;
* :mod:`extrapkit.weights` -- power and sampled weights on grids, dyadic
  constant estimation;
* :mod:`extrapkit.gridfn` -- grid operators (maximal, Hilbert, truncated
  bilinear Hilbert) and seeded test families;
* :mod:`extrapkit.rdf` -- Rubio de Francia iteration with numeric
  certificates for the constructive majorants;
* :mod:`extrapkit.verifier` -- empirical ratio sweeps with
  stability/divergence verdicts;
* :mod:`extrapkit.cli` -- the `extrapkit` command.

The first four (with :mod:`extrapkit.errors`) are exact and import no
numeric code; the rest run on numpy grids.
"""

__version__ = "0.1.0"
