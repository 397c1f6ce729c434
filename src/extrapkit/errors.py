"""Exception taxonomy for the whole package.

Planner errors (Infeasible, InvalidRange, ...) always carry the violated
condition in their message so CLI reports can surface it verbatim.
Invariants that a certificate rests on are checked with `require`, which
raises CertificationFailed and, unlike `assert`, survives `python -O`.
"""


class ExtrapkitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ExtrapkitError):
    """An exponent or scalar argument is outside its admissible domain."""


class GridMismatch(ExtrapkitError):
    """Two grid objects do not share the same (L, N) geometry."""


class InvalidRange(ExtrapkitError):
    """An extrapolation range violates its ordering or validity inequality."""


class OutOfRange(ExtrapkitError):
    """An exponent falls outside the open interval a range operation needs."""


class CaseUnsupported(ExtrapkitError):
    """The requested proof-exponent construction does not apply to this case."""


class StepInvalid(ExtrapkitError):
    """A coordinate step of a multilinear plan fails one of its inequalities."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"step {index}: {message}")


class Infeasible(ExtrapkitError):
    """A planner's strict feasibility conditions fail; names the condition."""


class InfeasibleBase(Infeasible):
    """The base (non-extrapolated) exponent configuration is infeasible."""


class GammaInvalid(ExtrapkitError):
    """The gamma triple is malformed (range or sum-to-one violated)."""


class TruncationInvalid(ExtrapkitError):
    """Truncation bounds are incompatible with the grid geometry."""


class UnknownSpec(ExtrapkitError):
    """Unrecognised test-family or weight descriptor."""


class UnknownSurrogate(ExtrapkitError):
    """Unrecognised surrogate bilinear operator name."""


class NormBoundTooSmall(ExtrapkitError):
    """Observed iterate growth exceeds the configured operator-norm bound."""


class DivergentProbe(ExtrapkitError):
    """A probe ratio exceeded the configured ceiling."""


class CertificationFailed(ExtrapkitError):
    """One or more numeric certificates failed; lists each failure."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(str(f) for f in self.failures))


def require(ok: bool, failure: str) -> None:
    """Raise CertificationFailed([failure]) unless `ok`."""
    if not ok:
        raise CertificationFailed([failure])
