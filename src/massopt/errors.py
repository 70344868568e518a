"""Exception types shared across the package."""


class MassOptError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCost(MassOptError):
    """Cost function failed structural validation."""


class NumericOverflow(MassOptError):
    """Numeric supremum exceeded the overflow cap with a bounded maximizer.

    This signals an internal inconsistency, not a legitimate +inf value.
    """


class OutsideDomain(MassOptError):
    """Evaluation requested beyond the finiteness region of a conjugate."""


class NonMonotoneQuotient(MassOptError):
    """Recession difference quotients decreased; the cost is not convex."""


class ExprError(MassOptError):
    """Parse or evaluation error in the cost/source expression language."""


class AtomOutsideGrid(MassOptError):
    """Atom location is not strictly inside the grid domain."""


class InadmissibleSource(MassOptError):
    """Source term not admissible for this cost/regime/dimension."""


class RegimeMismatch(MassOptError):
    """Operation called with a problem in the wrong growth regime."""


class UnsupportedGrid(MassOptError):
    """Grid kind not supported by the requested operation."""


class Unbounded(MassOptError):
    """The inner energy minimization is unbounded below."""


class TooLarge(MassOptError):
    """Instance exceeds the size limit of the brute-force minimizer."""


class UnknownFixture(MassOptError):
    """Requested closed-form fixture is not in the catalog."""


class ScheduleTooShort(MassOptError):
    """Regularization diagnostics did not settle within the schedule."""


class ConfigError(MassOptError):
    """Run configuration is malformed; the message names the offending key."""
