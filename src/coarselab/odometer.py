"""The adding machine on the binary tree and its boundary dynamics.

The odometer adds one in binary.  On tree vertices (bit tuples, LSB
first) it preserves depth except on the all-ones vertex, which promotes
to depth n+1, and it sends the root to (0,).  On the boundary it acts on
truncated binary sequences; a carry past the truncation is flagged, not
erased silently, and all arithmetic on the bottom N bits is exact
integer arithmetic (the bottom-N behavior of the odometer depends only
on the bottom N bits, which is what justifies truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coarse import rows_to_csv
from .spaces import BLOCK_PAIRS, BinaryTreeSpace

_TREE = BinaryTreeSpace()


@dataclass(frozen=True)
class BoundaryWord:
    """A boundary point known up to finite precision.

    ``bits[k]`` is the coefficient of 2^k; the word stands for the
    cylinder of all infinite extensions.  ``overflowed`` records that a
    carry once propagated past the truncation, i.e. information beyond
    the precision was lost.
    """

    bits: tuple[int, ...]
    overflowed: bool = False

    def __post_init__(self):
        if len(self.bits) < 1 or not all(b in (0, 1) for b in self.bits):
            raise ValueError("bits must be a nonempty 0/1 tuple")

    @property
    def precision(self) -> int:
        return len(self.bits)

    def value(self, n_bits: int | None = None) -> int:
        bits = self.bits if n_bits is None else self.bits[:n_bits]
        return sum(b << k for k, b in enumerate(bits))

    @staticmethod
    def from_value(value: int, precision: int, overflowed: bool = False) -> "BoundaryWord":
        if precision < 1:
            raise ValueError("precision must be >= 1")
        bits = tuple((value >> k) & 1 for k in range(precision))
        return BoundaryWord(bits, overflowed)

    def format(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class GromovProduct:
    """Common-prefix length of two (possibly truncated) binary objects.

    ``exact`` is False when the comparison exhausted a truncation before
    finding a disagreement; the value is then only a lower bound.
    """

    value: int
    exact: bool = True


@dataclass(frozen=True)
class DyadicDistance:
    """2^(-r) as an exact fraction; ``exact`` False means "<= value"."""

    value: Fraction
    exact: bool = True


def odometer_step(v: tuple[int, ...]) -> tuple[int, ...]:
    """Add one: depth-preserving binary increment, with the all-ones
    vertex promoted one level and the root sent to (0,)."""
    if not v:
        return (0,)
    if all(b == 1 for b in v):
        return (0,) * len(v) + (1,)
    bits = list(v)
    i = 0
    while bits[i] == 1:
        bits[i] = 0
        i += 1
    bits[i] = 1
    return tuple(bits)


def odometer_step_boundary(z: BoundaryWord) -> BoundaryWord:
    """Add one with the carry running up from index 0; carrying past the
    precision yields all zeros with the overflow flag set."""
    return odometer_power(z, 1)


def odometer_power(z: BoundaryWord, n: int) -> BoundaryWord:
    """Apply the odometer n times by exact addition on the bottom bits."""
    if n < 0:
        raise ValueError("the adding machine is a semigroup action: n must be >= 0")
    total = z.value() + n
    carry = total >> z.precision
    return BoundaryWord.from_value(
        total & ((1 << z.precision) - 1),
        z.precision,
        overflowed=z.overflowed or carry > 0,
    )


def _bits_of(x) -> tuple[tuple[int, ...], bool]:
    """(bits, is_truncation) for a tree vertex or boundary word."""
    if isinstance(x, BoundaryWord):
        return x.bits, True
    return _TREE.validate(x), False


def gromov_product(x, y) -> GromovProduct:
    """Length of the common prefix; for vertices this equals the
    basepoint distance formula (d(x,*) + d(y,*) - d(x,y)) / 2.

    When the comparison runs past a truncated boundary word the result
    is reported as a lower bound (``exact=False``) rather than a value.
    """
    xb, x_trunc = _bits_of(x)
    yb, y_trunc = _bits_of(y)
    n = min(len(xb), len(yb))
    for k in range(n):
        if xb[k] != yb[k]:
            return GromovProduct(k, exact=True)
    # ran to the end of the shorter object: exact only if that end is a
    # genuine vertex, whose depth caps the product
    shorter_is_truncated = x_trunc if len(xb) <= len(yb) else y_trunc
    if len(xb) == len(yb):
        shorter_is_truncated = x_trunc or y_trunc
    return GromovProduct(n, exact=not shorter_is_truncated)


def gromov_product_table(vertices: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Pairwise common-prefix lengths by position-by-position comparison.

    Bulk companion of :func:`gromov_product` for exhaustive sweeps;
    deliberately computed by comparing bits, not by the distance formula.
    A running mask marks the pairs that agree at every position so far,
    and each position adds it to a count.  A position past a vertex's
    depth reads -1 on the left and 2 on the right, so it matches nothing
    and the mask stops at the shorter depth.  Rows go in blocks of about
    ``BLOCK_PAIRS`` pairs, counted in the smallest dtype that holds the
    depth and written once into the int64 table.
    """
    vertices = [_TREE.validate(v) for v in vertices]
    n = len(vertices)
    depth = max((len(v) for v in vertices), default=0)
    left = np.full((n, depth), -1, dtype=np.int8)
    for i, v in enumerate(vertices):
        left[i, :len(v)] = v
    right = np.where(left < 0, 2, left)
    out = np.empty((n, n), dtype=np.int64)
    chunk = max(1, BLOCK_PAIRS // max(n, 1))
    for i0 in range(0, n, chunk):
        block = left[i0:i0 + chunk]
        agree = np.ones((len(block), n), dtype=bool)
        count = np.zeros(agree.shape, dtype=np.min_scalar_type(depth))
        for a, b in zip(block.T, right.T):
            agree &= a[:, None] == b
            count += agree
        out[i0:i0 + chunk] = count
    return out


def boundary_distance(x: BoundaryWord, y: BoundaryWord) -> DyadicDistance:
    """2^(-(x|y)) as an exact dyadic rational.

    Words identical through their precision N get the honest interval
    answer "<= 2^(-N)" instead of a fake zero.
    """
    if x.precision != y.precision:
        raise ValueError("boundary words must share a precision")
    r = gromov_product(x, y)
    return DyadicDistance(Fraction(1, 2**r.value), exact=r.exact)


def minimality_witness(x: BoundaryWord, y: BoundaryWord, n_agree: int) -> int:
    """Step count n with the first N+1 bits of n . x equal to y's
    (N = ``n_agree``), hence d(n . x, y) <= 2^-(N+1) < 2^-N.

    n = a + b where a = 2^(N+1) - (x's bottom N+1 bits as an integer)
    clears the bottom N+1 bits and b = (y's bottom N+1 bits) writes the
    target in.  Returned as an arbitrary-precision int and verified by
    exact addition before returning.
    """
    if n_agree < 0:
        raise ValueError("N must be >= 0")
    if x.precision <= n_agree or y.precision <= n_agree:
        raise ValueError("insufficient precision: need precision > N")
    width = n_agree + 1
    a = (1 << width) - x.value(width)
    b = y.value(width)
    n = a + b
    moved = odometer_power(x, n)
    if moved.value(width) != y.value(width):
        raise AssertionError("witness verification failed")  # pragma: no cover
    return n


@dataclass(frozen=True)
class DensityRow:
    target: BoundaryWord
    epsilon: Fraction
    n_agree: int
    witness: int
    achieved_log2: int  # the verified distance is <= 2**achieved_log2
    verified: bool


@dataclass(frozen=True)
class DensityTable:
    start: BoundaryWord
    rows: tuple[DensityRow, ...]

    def all_verified(self) -> bool:
        return all(row.verified for row in self.rows)

    def to_csv(self) -> str:
        return rows_to_csv(
            [(row.target.format(), str(row.epsilon), row.witness, row.achieved_log2)
             for row in self.rows],
            header=("target", "epsilon", "witness_n_decimal", "achieved_distance_log2"),
        )


def _precision_for(epsilon: Fraction) -> int:
    """Smallest N >= 1 with 2^-N <= epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    n = 1
    while Fraction(1, 2**n) > epsilon:
        n += 1
    return n


def density_experiment(
    x: BoundaryWord,
    targets: Sequence[BoundaryWord],
    epsilons: Sequence[Fraction],
) -> DensityTable:
    """Drive the orbit of x within epsilon of each target and verify the
    achieved distance by exact addition."""
    rows = []
    for y in targets:
        for eps in epsilons:
            eps = Fraction(eps)
            n_agree = _precision_for(eps)
            witness = minimality_witness(x, y, n_agree)
            moved = odometer_power(x, witness)
            agree = gromov_product(moved, y).value
            verified = agree >= n_agree + 1 and Fraction(1, 2**agree) < eps
            rows.append(
                DensityRow(
                    target=y,
                    epsilon=eps,
                    n_agree=n_agree,
                    witness=witness,
                    achieved_log2=-agree,
                    verified=verified,
                )
            )
    return DensityTable(start=x, rows=tuple(rows))
