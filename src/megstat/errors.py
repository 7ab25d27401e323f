"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI
(``ERROR <CODE>: <message>`` on the diagnostic stream, exit status 1).
"""


class MegstatError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"


class DomainError(MegstatError):
    """An input violates a physical or mathematical precondition."""

    code = "DOMAIN_ERROR"


class NoChannel(DomainError):
    """No multiplicity channel is energetically open (energy ratio <= 1)."""

    code = "NO_CHANNEL"


class DegenerateChannel(DomainError):
    """Only one channel is open, so the mean cannot be calibrated."""

    code = "DEGENERATE_CHANNEL"


class Unreachable(DomainError):
    """Calibration target lies outside the reachable mean range."""

    code = "UNREACHABLE"


class NonNormalizable(MegstatError):
    """The stationary product diverges; no stationary law exists."""

    code = "NON_NORMALIZABLE"


class SupportTooLarge(MegstatError):
    """The law is normalizable, but its support needs more states than the scan may take."""

    code = "SUPPORT_TOO_LARGE"


class DegenerateDenominator(DomainError):
    """Closed-form extremum formula has a vanishing denominator."""

    code = "DEGENERATE_DENOMINATOR"


class NotApplicable(DomainError):
    """Requested diagnostic is undefined for these rate constants."""

    code = "NOT_APPLICABLE"


class TruncationBreach(MegstatError):
    """Probability mass reached the truncation boundary of the lattice."""

    code = "TRUNCATION_BREACH"


class StepFailure(MegstatError):
    """More probability than the conservation tolerance leaked past the lattice's top state."""

    code = "STEP_FAILURE"
