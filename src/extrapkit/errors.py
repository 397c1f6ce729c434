"""Exception taxonomy for the whole package: one class per outcome.

The class of an error decides what the CLI makes of it:

    DomainError          bad input (a malformed exponent, grid, file,
                         descriptor or option)                  exit 1, `error:` line
    Infeasible           a hypothesis of a planner or range fails
                         (p_- < p0 < p_+, the validity inequality,
                         1/q < 3/2, ...)                        exit 2, infeasible report
    CertificationFailed  a numeric or exact certificate misses  exit 2, infeasible report
    NormBoundTooSmall    the RDF retry signal; caught inside `rdf`, and
                         exit 1 should one ever escape
    OverflowError        (built in) a value beyond the float range,
                         such as an exponent of 10^400          exit 1, `error:` line

Messages carry the violated condition so reports can surface it verbatim.
Invariants that a certificate rests on are checked with `require`, which
raises CertificationFailed and, unlike `assert`, survives `python -O`.
"""


class ExtrapkitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ExtrapkitError):
    """An argument, grid, file or descriptor is outside its admissible domain."""


class Infeasible(ExtrapkitError):
    """A planner's or range's strict feasibility condition fails; names the condition."""


class NormBoundTooSmall(ExtrapkitError):
    """Observed iterate growth exceeds the configured operator-norm bound."""


class CertificationFailed(ExtrapkitError):
    """One or more numeric certificates failed; lists each failure."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(str(f) for f in self.failures))


def require(ok: bool, failure: str) -> None:
    """Raise CertificationFailed([failure]) unless `ok`."""
    if not ok:
        raise CertificationFailed([failure])
