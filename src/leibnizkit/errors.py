"""Exception taxonomy shared by all modules.

Precondition failures raise; mathematical verdicts (a check that comes back
negative) are reported through CheckReport, never as exceptions.
"""


class LeibnizKitError(Exception):
    pass


class FieldMismatch(LeibnizKitError):
    pass


class DivisionByZero(LeibnizKitError, ZeroDivisionError):
    pass


class ShapeMismatch(LeibnizKitError):
    pass


class Singular(LeibnizKitError):
    pass


class NotLeibniz(LeibnizKitError):
    pass


class NotRepresentation(LeibnizKitError):
    pass


class NotKupershmidt(LeibnizKitError):
    pass


class NotNijenhuis(LeibnizKitError):
    pass


class NotRotaBaxter(LeibnizKitError):
    pass


class NotCompatible(LeibnizKitError):
    pass


class NotNijenhuisPair(LeibnizKitError):
    pass


class NeitherPairKind(LeibnizKitError):
    pass


class PairCheckFailed(LeibnizKitError):
    pass


class NotDualKN(LeibnizKitError):
    pass


class NotStrongMC(LeibnizKitError):
    pass


class SpaceMismatch(LeibnizKitError):
    pass


class NotRMatrix(LeibnizKitError):
    pass


class NotSymmetric(LeibnizKitError):
    pass


class NotSkew(LeibnizKitError):
    pass


class Degenerate(LeibnizKitError):
    pass


class HypothesisFailed(LeibnizKitError):
    pass


class BudgetExceeded(LeibnizKitError):
    pass


class SearchMismatch(LeibnizKitError):
    """A compiled search kernel and the general check disagree on a candidate."""


class NotFound(LeibnizKitError):
    pass


class UnknownIdentity(LeibnizKitError):
    pass


class ParseError(LeibnizKitError):
    pass
