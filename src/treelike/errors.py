"""Exception hierarchy shared by all modules.

Every error carries enough context (indices, names, values) to locate the
first offending entry without re-running the check.
"""


class TreelikeError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# similarity-space validation

class SpaceValidationError(TreelikeError):
    pass


class DuplicatePoint(SpaceValidationError):
    def __init__(self, index, point):
        self.index = index
        self.point = point
        super().__init__(f"duplicate point identifier {point!r} at index {index}")


class WeightSumMismatch(SpaceValidationError):
    def __init__(self, total):
        self.total = total
        super().__init__(f"weights sum to {total!r}, expected 1 within 1e-12")


class OutOfRangeEntry(SpaceValidationError):
    def __init__(self, where, value):
        self.where = where
        self.value = value
        super().__init__(f"entry {value!r} at {where} is out of range")


class AsymmetricSimilarity(SpaceValidationError):
    def __init__(self, i, j, a, b):
        self.index = (i, j)
        super().__init__(f"matrix asymmetric at ({i},{j}): {a!r} != {b!r}")


# ---------------------------------------------------------------------------
# metric inputs

class InvalidMetric(TreelikeError):
    pass


class NegativeDistance(InvalidMetric):
    def __init__(self, i, j, value):
        self.index = (i, j)
        super().__init__(f"negative distance {value!r} at ({i},{j})")


class TriangleViolation(InvalidMetric):
    def __init__(self, triple, slack):
        self.triple = triple
        super().__init__(
            f"triangle inequality fails on triple {triple} by {slack!r}"
        )


class InvalidDiagonal(InvalidMetric):
    def __init__(self, i, value):
        super().__init__(f"distance diagonal entry {value!r} at {i} is nonzero")


# ---------------------------------------------------------------------------
# trees

class TreeStructureError(TreelikeError):
    pass


class UnknownLeaf(TreeStructureError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"point {point!r} is not a leaf of the tree")


class LeafMismatch(TreeStructureError):
    pass


class MapMismatch(TreeStructureError):
    pass


# ---------------------------------------------------------------------------
# hyperbolicity / threshold ladder

class ZeroSamples(TreelikeError):
    pass


class ThresholdOutOfRange(TreelikeError):
    def __init__(self, t, bound):
        super().__init__(f"threshold {t!r} outside (0, {bound!r}]")


class Delta0TooLarge(TreelikeError):
    def __init__(self, delta0, kappa):
        self.delta0 = delta0
        self.kappa = kappa
        super().__init__(
            f"delta0={delta0!r} is not below kappa/2={kappa / 2!r}; "
            "the space is not hyperbolic enough for this (epsilon, m)"
        )


class NoGoodThreshold(TreelikeError):
    def __init__(self, i, window, best):
        super().__init__(
            f"no threshold in window {window} around rung {i} has "
            f"triple-defect mass below the budget (best found {best!r})"
        )


# ---------------------------------------------------------------------------
# regularity partition

class ZeroMassGraph(TreelikeError):
    pass


class BlowupTooLarge(TreelikeError):
    def __init__(self, needed, cap):
        self.needed = needed
        self.cap = cap
        super().__init__(f"common denominator {needed} exceeds cap {cap}")


class EigensolveFailure(TreelikeError):
    pass


class HeavyAtom(TreelikeError):
    pass


class EmptyPart(TreelikeError):
    pass


# ---------------------------------------------------------------------------
# cliques

class NotAClique(TreelikeError):
    def __init__(self, msg, witness=None):
        self.witness = witness
        super().__init__(msg)


class LightClique(TreelikeError):
    """A clique group of two or more points below the mass floor."""


# ---------------------------------------------------------------------------
# spin glass

class SizeTooSmall(TreelikeError):
    pass


class TooLargeForEnumeration(TreelikeError):
    pass


class BadSchedule(TreelikeError):
    pass


class LengthMismatch(TreelikeError):
    pass


class DegenerateSample(TreelikeError):
    pass


# ---------------------------------------------------------------------------
# CLI / IO

class BadParams(TreelikeError):
    pass


class IOFailure(TreelikeError):
    pass


class PostconditionFailure(TreelikeError):
    """A structural guarantee of the construction failed at runtime."""
