"""Exception types raised by the toolkit's domain operations."""

import numpy as np


class SeidelKitError(Exception):
    """Base class for every domain error in this package."""


class InvalidGraph(SeidelKitError):
    """Graph construction invariant broken (bad index, zero weight, nonpositive loop)."""


class InvalidPartition(SeidelKitError):
    """Cell partition invariant broken (overlap, undersized cell, bad cover)."""


class AsymmetricWeights(SeidelKitError):
    """Operation requires w(u, v) == w(v, u) for every vertex pair."""


class NotSquare(SeidelKitError):
    """Matrix input must be square."""


class NotSymmetric(SeidelKitError):
    """Matrix input must be symmetric."""


class OrderMismatch(SeidelKitError):
    """Two inputs must have the same order."""


class InvalidOrder(SeidelKitError):
    """Requested order is outside the operation's domain."""


class NonConstantRowSum(SeidelKitError):
    """Cross-block transform requires every row to sum to the same value."""


class NotHalfAndHalf(SeidelKitError):
    """Vector must be half zeros and half one repeated nonzero constant."""


class NotRegularInduced(SeidelKitError):
    """An induced subgraph required to be regular is not."""


class BadAdjacencyCount(SeidelKitError):
    """A hub vertex is adjacent to a number of cell vertices other than 0, n/2, n."""


class UnequalWeights(SeidelKitError):
    """Half-attached hub vertex carries unequal weights within one direction."""


class ParallelEdges(SeidelKitError):
    """Two same-direction edges between one ordered vertex pair.

    The in-memory edge map cannot represent this; it is raised while reading
    documents that list a duplicate ordered pair.
    """


class CrossCellEdge(SeidelKitError):
    """Edges between two distinct cells are forbidden for starlike graphs."""


class NonuniformCategory1Weights(SeidelKitError):
    """Fully-attached hub edges must share one weight per direction."""


class NonuniformCategory2Weights(SeidelKitError):
    """Half-attached hub edges must share one weight per direction across the cell."""


class OddCategory2Count(SeidelKitError):
    """The number of half-attached hub vertices per cell must be even."""


class NonComplementaryHalves(SeidelKitError):
    """Half-attached hub vertices must split evenly over one subset and its complement."""


class NotRealizable(SeidelKitError):
    """A switched matrix cannot be realized as the Laplacian of any graph."""


class NegativeLoopWeight(NotRealizable):
    """Signless-Laplacian projection produced a negative loop weight."""


class TooLarge(SeidelKitError):
    """Input exceeds the size limit of an exhaustive search."""


class ZeroTrace(SeidelKitError):
    """Cannot normalize a matrix whose trace is zero."""


class NotPSD(SeidelKitError):
    """Matrix is not positive semidefinite."""


class NotUnitary(SeidelKitError):
    """Operator input must be unitary."""


class BadBipartition(SeidelKitError):
    """Bipartition factors do not multiply to the operator order."""


class VerificationFailed(SeidelKitError):
    """A requested post-transform cross-check did not hold."""


class ParseError(SeidelKitError):
    """Graph document cannot be parsed or violates the document schema."""


def raise_first(*checks) -> None:
    """Raise the error of the earliest failing entry, if any.

    Each check is a pair (mask, make_error): a boolean array over the same
    sequence of entries, and a function from an entry's position to the
    exception; the masks of one call have one shape, and a position counts
    along the raveled mask. The earliest position that any mask flags wins;
    at one position, the check listed first wins. This keeps the error a
    sequential walk would raise while every check runs on whole arrays.
    """
    masks = np.array([mask for mask, _ in checks])
    if np.logical_or.reduce(masks, axis=None):
        masks = masks.reshape(len(checks), -1)
        position = int(masks.any(axis=0).argmax())
        raise checks[int(masks[:, position].argmax())][1](position)
