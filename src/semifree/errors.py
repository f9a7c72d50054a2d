"""Exception types shared across the package."""


class SemifreeError(Exception):
    """Base class for all mathematical / validation errors raised here."""


# fixed point data
class InputError(SemifreeError):
    """Malformed input: a document or option that does not parse, or
    fixed-point data that breaks the invariants below."""


class ZeroWeight(InputError):
    """A fixed point carries a zero weight (fixed points must be isolated)."""


class WrongWeightCount(InputError):
    """A fixed point does not carry exactly n weights."""


class DuplicateId(InputError):
    """Two fixed points share an id."""


class MissingMomentValue(SemifreeError):
    """An operation needing moment values met a point without one."""


class ZeroIsCritical(SemifreeError):
    """Zero is a critical level: some moment value (or the offset) is integral."""


class NotSemifree(SemifreeError):
    """An operation restricted to semifree data got a weight other than +-1."""


# localization
class SearchSpaceTooLarge(SemifreeError):
    """The candidate enumeration exceeds the configured cap."""


class TooManyMonomials(SemifreeError):
    """The Chern monomials up to a degree are more than the supported bound."""


class CountTooLarge(SemifreeError):
    """Fixed-point counts are asked for at an n above the supported bound."""


class IntegralTooLarge(SemifreeError):
    """An integral has, or may have, more digits than can be printed."""


# reduction
class ReductionTooLarge(SemifreeError):
    """The graded quotient is asked for at an n above the supported bound."""


# deduction pipeline
class CountMismatch(SemifreeError):
    """Fixed point counts are not the binomial row the deduction needs."""


# hypercube model
class RingTooLarge(SemifreeError):
    """The model ring's restriction tables, printed by `ring` or ranked by
    injectivity_rank_check, are asked for at an n above their bound."""


class NotInModule(SemifreeError):
    """A class names a generator a_i outside a_1..a_n, so it has no
    expansion over the alpha basis of the n-cube."""
