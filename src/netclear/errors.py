"""Exception types shared across the package."""


class NetclearError(Exception):
    """Base class for all package-specific errors."""


# -- network construction ----------------------------------------------------

class DuplicateTradeId(NetclearError):
    pass


class SelfLoop(NetclearError):
    pass


class UnknownFirm(NetclearError):
    pass


class NetworkMismatch(NetclearError):
    pass


class NetworkTooLarge(NetclearError):
    pass


# -- expressions -------------------------------------------------------------

class ExpressionSyntaxError(NetclearError):
    pass


class UnknownPriceSymbol(NetclearError):
    pass


# -- utility tables ----------------------------------------------------------

class AllInfeasible(NetclearError):
    pass


class BundleOutOfScope(NetclearError):
    pass


class NotTerminalBuyer(NetclearError):
    pass


class NonMonotoneExpr(NetclearError):
    pass


class NotUnitDemand(NetclearError):
    pass


# -- demand ------------------------------------------------------------------

class NotDemanded(NetclearError):
    pass


# -- property checkers -------------------------------------------------------

class PatternViolation(NetclearError):
    """A price pair does not match the comparison pattern a checker needs."""


class UnknownBoundKind(NetclearError, ValueError):
    """``check_bounds`` was given a kind other than BCV and BWP."""


# -- equilibrium -------------------------------------------------------------

class NotAnEquilibriumInput(NetclearError):
    pass


class EmptyBox(NetclearError):
    pass


class EmptySet(NetclearError):
    pass


class NoEquilibriumFound(NetclearError):
    pass


class NotTerminalBuyers(NetclearError):
    pass


class RepeatedCoalitionMember(NotTerminalBuyers):
    """A coalition names one firm twice."""


class GridTooLarge(NetclearError):
    """A grid scan would visit more points than the scan cap allows.
    Carries the point count."""

    def __init__(self, message, points):
        super().__init__(message)
        self.points = points


class NonFiniteUtility(NetclearError):
    """A utility evaluated to NaN or an infinity, or left its domain, so Z
    and the demand set are undefined.  ``row`` is the first offending row
    of a value matrix (None for a single price tuple)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class InfeasibleAllocation(NetclearError):
    """An allocation gives a firm a bundle outside its utility table."""


# -- adapters ----------------------------------------------------------------

class NotInducedNetwork(NetclearError):
    pass


# -- cli / scenarios ---------------------------------------------------------

class ScenarioParseError(NetclearError):
    pass


class SchemaVersionMismatch(NetclearError):
    pass


class ScenarioValidationError(NetclearError):
    pass
