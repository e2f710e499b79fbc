"""Exact proper metric space models with finite ball enumeration.

Four models are provided:

* ``LatticeSpace`` -- Z^k (or the sub-semigroup N^k) with a word metric.
  The standard generating set {+-e_i} gives the l1 metric; custom
  generating sets fall back to breadth-first word length.  N^k carries
  the restriction of the Z^k word metric, so it sits isometrically
  inside Z^k.
* ``FreeGroupSpace`` -- the rank-2 free group as reduced strings over
  ``aAbB`` (``A`` is the inverse of ``a``).  With standard generators the
  Cayley graph is a tree and d(u, v) = |u| + |v| - 2 lcp(u, v).
* ``BinaryTreeSpace`` -- the rooted binary tree.  A vertex is a tuple of
  bits stored least-significant-bit first; the empty tuple is the
  basepoint and the parent of a vertex drops its last (most significant)
  bit.
* ``ConeSpace`` -- lives in :mod:`coarselab.cone`; distance there is the
  grid upper-bound approximation.

Each model gives one distance kernel, ``_distances_at(ps, limit)``,
which returns ``dist(i, j)`` over the points ``ps``; ``Space`` derives
``pairwise``, ``paired`` and ``_near`` from it.  It is exact up to
``limit``, which callers that only compare distances with a radius set
to it, so that the cone stops its searches there.  The standard lattice,
free-group and tree kernels read an array form of the points
(``_packed``, then ``_kernel``): coordinates, or packed codes and
lengths.  The free group and the tree share one packed prefix-distance
kernel and one scalar reference for it, ``_PrefixSpace._distance``, which
compares two points symbol by symbol.  The standard lattice and free
group also move an array form by a translation (``_translated``), so a
certifier can measure a translated ball without mapping its points one
by one.  The lattice, free-group and tree models give ``neighbors(v)``,
which drives their breadth-first word lengths and ball enumeration,
except where a ball is listed directly: at the root of the standard free
group and tree, level by level, and about any int64-safe center of the
standard Z^k and N^k, one coordinate at a time.  The free group and the
tree also list the pairs of a sorted point list within a radius,
``_listed_pairs(ps, r)``, as runs of points sharing a prefix, at a cost
that grows with the pairs and not with len(ps)^2.  Every model gives
those pairs i < j as ``_entourage(ps, r)``: from that listing, from one
translated ball on a lattice, else from one ``closed_ball`` per point.

All lattice / word / tree distances are exact integers; no floating
point enters these models.  Ball enumeration is capped (default 10^6
points) and exceeding the cap raises ``CapExceeded`` rather than
truncating silently.

Configs are read in :mod:`coarselab.cli`; this module keeps only the
numeric-literal grammar, ``_number``, which cone edge lists share.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

DEFAULT_CAP = 1_000_000
# pairs a distance kernel computes at once: 16k keep each int64
# intermediate at 128 KB, so a block's few of them stay in L2
BLOCK_PAIRS = 16_384

LETTERS = "aAbB"
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
# packed symbol of each letter (by its byte): 3 bits, never 0, increasing
# in the letters' natural order ABab
_LETTER_SYMBOLS = np.zeros(128, dtype=np.int64)
_LETTER_SYMBOLS[[ord(ch) for ch in sorted(LETTERS)]] = [1, 2, 3, 4]
_NO_LETTERS = str.maketrans("", "", LETTERS)
# the letters that extend a reduced word ending in a given letter (or
# empty), in sorted order: all but that letter's inverse
_CHILD_LETTERS = {
    last: "".join(ch for ch in sorted(LETTERS) if ch != _INVERSE.get(last))
    for last in ("", *LETTERS)
}


class ModelMismatch(ValueError):
    """A point does not belong to the model of the space handle."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured cardinality cap."""


@dataclass(frozen=True)
class BallSpec:
    """A closed metric ball given by center and radius."""

    center: Any
    radius: float

    def __post_init__(self):
        _check_radius(self.radius)


# ---------------------------------------------------------------------------
# free-word arithmetic


def reduce_word(letters: Iterable[str]) -> str:
    """Freely reduce a letter sequence over {a, A, b, B}.

    Stack-based; idempotent and independent of cancellation order.
    """
    stack: list[str] = []
    for ch in letters:
        if ch not in _INVERSE:
            raise ValueError(f"invalid letter {ch!r}; expected one of {LETTERS!r}")
        if stack and stack[-1] == _INVERSE[ch]:
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def word_inverse(w: str) -> str:
    return w[::-1].swapcase()


def word_multiply(u: str, v: str) -> str:
    """Product of two reduced words, reduced at the junction.

    Both factors must be reduced (every library caller passes validated
    words): only letters meeting at the junction cancel, so the product
    of reduced words is reduced, and an unreduced factor stays
    unreduced in it.
    """
    if not u or not v or v[0] != _INVERSE.get(u[-1]):
        return u + v
    k, n = 1, min(len(u), len(v))
    while k < n and v[k] == _INVERSE.get(u[-1 - k]):
        k += 1
    return u[: len(u) - k] + v[k:]


def is_reduced(w) -> bool:
    """True when ``w`` is a ``str`` whose every character is one of
    ``aAbB`` and in which no letter stands next to its inverse (no
    ``aA``, ``Aa``, ``bB`` or ``Bb``).  The empty word is reduced."""
    return isinstance(w, str) and _reduced_lines(w)


def _reduced_lines(text: str, newlines: int = 0) -> bool:
    """True when ``text`` is ``newlines + 1`` reduced words joined by
    newlines: deleting the letters leaves exactly the separators, and no
    cancelling pair occurs (a newline keeps two words' letters apart)."""
    return (
        text.translate(_NO_LETTERS) == "\n" * newlines
        and "aA" not in text and "Aa" not in text and "bB" not in text and "Bb" not in text
    )


def enumerate_reduced_words(length: int) -> list[str]:
    """All reduced words of exactly the given length (4 * 3^(n-1) of them),
    in natural order: level ``length`` of the standard free group's ball."""
    if length < 0:
        raise ValueError("length must be >= 0")
    level = [""]
    for _ in range(length):
        level = FreeGroupSpace()._children(level)
    return level


# ---------------------------------------------------------------------------
# space handles


class Space:
    """Common surface of the space handles.

    Subclasses provide ``model``, ``integer_metric``, ``basepoint``,
    ``validate``, ``_distance`` and may give a vectorized distance kernel,
    ``_distances_at`` or an array form and its kernel, ``_packed`` and
    ``_kernel``, from which ``pairwise`` and ``paired`` are derived.
    Graph models provide ``neighbors``, from which ``_word_length`` and
    the breadth-first ``closed_ball`` are derived; a graph model that can
    list a ball directly gives ``_listed_ball``: the standard free group
    and tree at the root, and the standard Z^k and N^k about a center
    whose ball stays in int64.  Such a model also gives the ball's size
    from a closed form, ``_ball_size``, which the listing checks against
    the cap before it lists.  Other models override ``closed_ball``.  A
    model that can list the pairs of points within a radius without a
    distance table (the standard free group and tree, on points sorted
    as ``closed_ball`` gives them) gives ``_listed_pairs``, from which
    ``_entourage`` takes the pairs i < j; a lattice overrides it.
    """

    model: str = "abstract"
    integer_metric: bool = False
    cap: int = DEFAULT_CAP

    @property
    def basepoint(self):
        raise NotImplementedError

    def validate(self, p):
        """Check that ``p`` belongs to this model; return its canonical form."""
        raise NotImplementedError

    def distance(self, p, q):
        return self._distance(p, q)

    def _distance(self, p, q, limit=math.inf):
        """The scalar distance, exact up to ``limit``: a custom generating
        set's word-length search stops there and reads inf."""
        raise NotImplementedError

    def neighbors(self, v) -> list:
        """The points one generator step from ``v``."""
        raise NotImplementedError

    def closed_ball(self, center, r) -> list:
        """Points within distance ``r`` of ``center``, sorted by length,
        then in natural order: listed by ``_listed_ball`` where the model
        knows the ball, else breadth-first over ``neighbors``."""
        center = self.validate(center)
        radius = _as_int_radius(r)
        ball = self._listed_ball(center, radius)
        if ball is not None:
            return ball
        seen = {center: 0}
        sphere = [center]
        for _ in range(radius):
            sphere = self._next_sphere(sphere, seen)
        return sorted(self._restrict(seen), key=lambda p: (len(p), p))

    def _listed_ball(self, center, radius: int) -> list | None:
        """``closed_ball(center, radius)`` listed directly, with the
        search's cap check, or None to send ``closed_ball`` to the
        search."""
        return None

    def _ball_size(self, radius: int) -> int | None:
        """How many points ``closed_ball(basepoint, radius)`` counts
        against the cap, where the model has a closed form; else None."""
        return None

    def _listed_pairs(self, ps: Sequence, r) -> Iterable | None:
        """The index pairs (i, j), i <= j, of ``ps`` with d(ps[i], ps[j])
        <= r, listed without a distance table: an iterable of batches of
        index arrays ``(i, j)`` in row-major order, each but the last of
        at least ``BLOCK_PAIRS`` pairs, expanded afresh on each
        iteration; or None, where the model cannot list them, to send
        the caller to thresholding the distance kernel."""
        return None

    def _entourage(self, points: Sequence, r) -> tuple[np.ndarray, np.ndarray]:
        """The index pairs (i, j), i < j, of ``points`` within ``r`` as int64
        arrays ``(src, dst)``, sources in ``points`` order and each one's
        partners in ``closed_ball`` order: the j > i pairs of
        ``_listed_pairs`` where the model lists them, else by one
        ``closed_ball`` per point."""
        listed = self._listed_pairs(points, r)
        if listed is not None:
            i, j = (np.concatenate(a) for a in zip(*listed))
            return i[j > i], j[j > i]
        index = {p: i for i, p in enumerate(points)}
        pairs = [(i, j) for i, p in enumerate(points)
                 for j in map(index.get, self.closed_ball(p, r))
                 if j is not None and j > i]  # partners inside the window, unordered
        return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)

    def _restrict(self, points):
        """The model's points among those enumerated over ``neighbors``."""
        return points

    def _next_sphere(self, sphere: list, seen: dict, what: str = "ball enumeration",
                     step: Callable | None = None) -> list:
        """The unseen neighbors of ``sphere``, entered into ``seen`` one step
        farther out than the point that reached them; ``step(v)`` gives the
        points one step from ``v`` (``neighbors`` by default)."""
        step = step or self.neighbors
        out = []
        for v in sphere:
            d = seen[v] + 1
            for w in step(v):
                if w not in seen:
                    self._check_cap(len(seen) + 1, what)
                    seen[w] = d
                    out.append(w)
        return out

    @cached_property
    def _word_length_search(self) -> tuple[dict, list]:
        # word lengths found so far, and the outermost sphere among them
        return {self.basepoint: 0}, [self.basepoint]

    def _word_length(self, g, limit=math.inf):
        """Word length of ``g``: breadth-first from the basepoint, grown on
        demand and memoized; inf once the search has passed ``limit``
        without finding ``g``."""
        memo, sphere = self._word_length_search
        while g not in memo:
            if sphere and memo[sphere[0]] >= limit:
                return math.inf
            sphere[:] = self._next_sphere(sphere, memo, "word-length search")
            if not sphere:
                raise ModelMismatch(f"{g!r} is not generated by {self.moves!r}")
        return memo[g]

    def format_point(self, p) -> str:
        raise NotImplementedError

    def pairwise(self, ps: Sequence, qs: Sequence) -> np.ndarray:
        """Full distance matrix between two point sequences: the kernel
        over ``[*ps, *qs]``, ``BLOCK_PAIRS // len(qs)`` rows at a time,
        each written once into the result; byte distances widen to int64."""
        n, m = len(ps), len(qs)
        dist = self._distances_at([*ps, *qs])
        chunk = max(1, BLOCK_PAIRS // max(m, 1))
        out = None
        for i0 in range(0, max(n, 1), chunk):  # an empty ps still gives the dtype
            d = dist(np.arange(i0, min(n, i0 + chunk))[:, None], slice(n, n + m))
            if out is None:
                out = np.empty((n, m), np.int64 if d.dtype == np.uint8 else d.dtype)
            out[i0:i0 + chunk] = d
        return out

    def _near(self, ps: Sequence, qs: Sequence, r) -> np.ndarray:
        """Boolean matrix of d(p, q) < r, for callers that only compare
        distances with the threshold ``r``: one kernel call limited to
        ``r``."""
        n = len(ps)
        dist = self._distances_at([*ps, *qs], limit=r)
        return dist(np.arange(n)[:, None], slice(n, n + len(qs))) < r

    def paired(self, ps: Sequence, qs: Sequence) -> np.ndarray:
        """Elementwise distances of two equal-length point sequences."""
        if len(ps) != len(qs):
            raise ValueError("paired distance needs equal-length sequences")
        n = len(ps)
        d = self._distances_at([*ps, *qs])(np.arange(n), n + np.arange(n))
        return d.astype(np.int64) if d.dtype == np.uint8 else d

    def _distances_at(self, ps: Sequence, limit=math.inf) -> Callable[[Any, Any], np.ndarray]:
        """``dist(i, j)``, the distances from ``ps[i]`` to ``ps[j]`` for
        broadcasting index arrays or slices ``i`` and ``j``.  ``ps`` is
        validated here, once.  Distances up to ``limit`` are exact; a
        model may read larger ones as inf.  This is the one distance
        kernel a model gives: ``_kernel`` over the array form ``_packed``
        where the model has one, else this fallback, which asks the
        scalar ``_distance`` with the same ``limit``, in floats."""
        packed = self._packed(ps)
        if packed is not None:
            return self._kernel(packed, packed)
        self._validate_all(ps)
        at = np.arange(len(ps))

        def dist(i, j):
            i, j = np.broadcast_arrays(at[i], at[j])
            d = [self._distance(ps[a], ps[b], limit) for a, b in zip(i.flat, j.flat)]
            return np.array(d, dtype=float).reshape(i.shape)

        return dist

    def _packed(self, ps):
        """The validated points ``ps`` in the array form that ``_kernel``
        reads, or None where the model has none for them."""
        return None

    def _kernel(self, a, b) -> Callable[[Any, Any], np.ndarray]:
        """``dist(i, j)``, the distances from ``a[i]`` to ``b[j]`` of two
        ``_packed`` array forms."""
        raise NotImplementedError

    def _translated(self, packed, translation):
        """The array form of the images of the points whose array form is
        ``packed`` under a map's ``translation`` attribute, or None where
        the model cannot give it exactly; the caller then maps the
        points one by one."""
        return None

    def _validate_all(self, ps):
        """Raise ``validate``'s ``ModelMismatch`` for the first point of
        ``ps`` it rejects.  One vectorized ``_all_valid`` test skips the
        scalar check when every point passes."""
        if not self._all_valid(ps):
            for p in ps:
                self.validate(p)

    def _all_valid(self, ps) -> bool:
        """True only if ``validate`` accepts every point of ``ps``; False
        sends ``_validate_all`` to the scalar check."""
        return False

    def _check_cap(self, n: int, what: str = "ball enumeration"):
        if n > self.cap:
            raise CapExceeded(f"{what} exceeded cap of {self.cap} points")


def _integer_tuples(ps, length: int | None = None) -> list | None:
    """The coordinates of ``ps``, flattened, when every point is a tuple
    (of ``length`` entries, if given) of ints or numpy integers; else
    None.  Type tests run over the sets of types, not point by point."""
    if not set(map(type, ps)) <= {tuple}:
        return None
    if length is not None and not set(map(len, ps)) <= {length}:
        return None
    flat = list(itertools.chain.from_iterable(ps))
    if not all(issubclass(t, (int, np.integer)) for t in set(map(type, flat))):
        return None
    return flat


def _check_radius(r, what: str = "radius"):
    """``r``, once it is finite and >= 0; ``what`` names it in the error."""
    if not math.isfinite(r):
        raise ValueError(f"{what} must be finite")
    if r < 0:
        raise ValueError(f"{what} must be >= 0")
    return r


def _as_int_radius(r) -> int:
    return int(np.floor(_check_radius(r)))


@dataclass(frozen=True)
class LatticeSpace(Space):
    """Z^k (signed) or N^k (unsigned) with a word metric.

    ``generators`` is an optional tuple of integer vectors; its symmetric
    closure generates Z^k.  ``None`` means the standard basis, for which
    the word metric is l1.  For N^k the point set is the non-negative
    orthant while the metric stays the ambient Z^k word metric.
    """

    rank: int
    signed: bool = True
    generators: tuple[tuple[int, ...], ...] | None = None
    cap: int = DEFAULT_CAP

    model = "lattice"
    integer_metric = True

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.generators is not None:
            for g in self.generators:
                if len(g) != self.rank:
                    raise ValueError("generator length must equal rank")
                if all(c == 0 for c in g):
                    raise ValueError("zero vector cannot generate")

    @property
    def basepoint(self) -> tuple[int, ...]:
        return (0,) * self.rank

    @cached_property
    def moves(self) -> tuple[tuple[int, ...], ...]:
        if self.generators is None:
            gens = []
            for i in range(self.rank):
                e = [0] * self.rank
                e[i] = 1
                gens.append(tuple(e))
        else:
            gens = list(self.generators)
        sym = {g for g in gens} | {tuple(-c for c in g) for g in gens}
        return tuple(sorted(sym))

    @property
    def standard(self) -> bool:
        return self.generators is None

    def validate(self, p):
        if not isinstance(p, tuple) or len(p) != self.rank:
            raise ModelMismatch(f"expected integer tuple of length {self.rank}: {p!r}")
        if not all(isinstance(c, (int, np.integer)) for c in p):
            raise ModelMismatch(f"lattice coordinates must be integers: {p!r}")
        if not self.signed and any(c < 0 for c in p):
            raise ModelMismatch(f"N^{self.rank} point has a negative coordinate: {p!r}")
        return tuple(int(c) for c in p)

    def _all_valid(self, ps) -> bool:
        flat = _integer_tuples(ps, self.rank)
        return flat is not None and (self.signed or min(flat, default=0) >= 0)

    def _distance(self, p, q, limit=math.inf):
        p = self.validate(p)
        q = self.validate(q)
        delta = tuple(b - a for a, b in zip(p, q))
        if self.standard:
            return sum(abs(c) for c in delta)
        return self._word_length(delta, limit)

    @cached_property
    def _steps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # each move as its nonzero (coordinate, change) pairs
        return tuple(tuple((i, c) for i, c in enumerate(m) if c) for m in self.moves)

    def neighbors(self, v: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = []
        for step in self._steps:
            w = list(v)
            for i, c in step:
                w[i] += c
            out.append(tuple(w))
        return out

    def _ball_size(self, radius):
        # |B(0, r)| in Z^k is the sum over i of 2^i C(k, i) C(r, i); N^k
        # counts it too, as its search steps through the ambient Z^k
        if not self.standard:
            return None
        k = self.rank
        return sum(2**i * math.comb(k, i) * math.comb(radius, i) for i in range(min(k, radius) + 1))

    def _listed_ball(self, center, radius):
        # On the standard generators closed_ball's order is lexicographic,
        # so B(c, r) is listed one coordinate at a time: each listed prefix
        # is followed by the values of the next coordinate within its
        # remaining l1 budget, in increasing order (on N^k, those that stay
        # in the orthant).  Centers whose ball passes _coords' int64 range
        # keep the search.
        if not self.standard or max(map(abs, center)) + radius > self._int64_limit:
            return None
        if radius:  # the search checks no cap for the center alone
            self._check_cap(self._ball_size(radius))
        ball = np.zeros((1, 0), np.int64)
        budget = np.array([radius])
        for c in center:
            low = -budget if self.signed else np.maximum(-budget, -c)
            counts = budget - low + 1
            row = np.repeat(np.arange(len(ball)), counts)
            # the t-th value after a prefix's first is low + t
            value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - low, counts)
            ball = np.column_stack([ball[row], value + c])
            budget = budget[row] - np.abs(value)
        return list(map(tuple, ball.tolist()))

    def _entourage(self, points, r):
        # B(p, R) = p + B(0, R), the offsets from the signed ambient lattice
        # (N^k keeps the negative ones), in closed_ball's order, which
        # translation keeps.  A point's mixed-radix key from the window's
        # corner is exact (int64, or Python integers past it) and linear:
        # p + o has key(p) + key(o).  A key range of at most cap keys is a
        # table of window indices (-1 elsewhere, 8 B a key) read in one
        # gather; a wider one is a sorted search.
        ambient = replace(self, signed=True)
        offsets = ambient.closed_ball(ambient.basepoint, r)
        coords, steps = self._coords(points), self._coords(offsets)
        lo = [int(a) + int(b) for a, b in zip(coords.min(axis=0), steps.min(axis=0))]
        hi = [int(a) + int(b) for a, b in zip(coords.max(axis=0), steps.max(axis=0))]
        spans = [h - l + 1 for l, h in zip(lo, hi)]
        size = math.prod(spans)
        dtype = np.int64 if size <= np.iinfo(np.int64).max else object
        radix = np.array([math.prod(spans[d + 1:]) for d in range(len(spans))], dtype=dtype)
        # coordinates past int64 are Python integers, but their offsets from lo fit
        keys = ((coords - np.array(lo, dtype=coords.dtype)).astype(dtype) * radix).sum(axis=1)
        shifts = (steps.astype(dtype) * radix).sum(axis=1)
        if dtype is np.int64 and size <= self.cap:
            table = np.full(size, -1)
            table[keys] = np.arange(len(points))
            find = table.__getitem__
        else:
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]

            def find(cand):
                pos = np.minimum(np.searchsorted(sorted_keys, cand), len(points) - 1)
                return np.where(sorted_keys[pos] == cand, order[pos], -1)

        src, dst = [], []
        # 64k candidates a chunk
        chunk = max(1, 65_536 // len(shifts))
        for i0 in range(0, len(points), chunk):
            j = find(keys[i0:i0 + chunk, None] + shifts)
            rows, cols = np.nonzero(j > np.arange(i0, i0 + len(j))[:, None])
            src.append(rows + i0)
            dst.append(j[rows, cols])
        return np.concatenate(src), np.concatenate(dst)

    def _restrict(self, points):
        # N^k balls are enumerated in the ambient Z^k
        if self.signed:
            return points
        return [p for p in points if all(c >= 0 for c in p)]

    @property
    def _int64_limit(self) -> int:
        """The largest |coordinate| that ``_coords`` keeps in int64: every
        l1 distance among such points fits."""
        return np.iinfo(np.int64).max // (2 * self.rank)

    def _coords(self, ps) -> np.ndarray:
        """Validated points as an int64 array while every l1 distance among
        them fits in int64, else as an array of exact Python integers."""
        limit = self._int64_limit
        n = len(ps) * self.rank
        try:
            a = np.fromiter(itertools.chain.from_iterable(ps), np.int64, n)
            a = a.reshape(len(ps), self.rank)
            if a.size == 0 or (a.max() <= limit and a.min() >= -limit):
                return a
        except OverflowError:
            pass
        # numpy integers become Python ones, which cannot overflow
        return np.array([list(map(int, p)) for p in ps], dtype=object).reshape(
            len(ps), self.rank
        )

    def _packed(self, ps):
        # l1 on the standard generators only
        if not self.standard:
            return None
        self._validate_all(ps)
        return self._coords(ps)

    def _kernel(self, a, b):
        return lambda i, j: np.abs(a[i] - b[j]).sum(axis=-1)

    def _translated(self, packed, translation):
        # p + g on int64 coordinates, while p + g stays where _coords
        # keeps int64 and, on N^k, in the orthant
        if not isinstance(translation, tuple) or packed.dtype != np.int64:
            return None
        g = _integer_tuples([translation], self.rank)
        limit = self._int64_limit
        if g is None or max(map(abs, g)) > limit:
            return None
        moved = packed + np.array(g, np.int64)  # |p|, |g| <= limit: no overflow
        if moved.size and (moved.max() > limit or moved.min() < (-limit if self.signed else 0)):
            return None
        return moved

    def format_point(self, p) -> str:
        return "(" + ",".join(str(c) for c in p) + ")"


def _prefix_lcp(x: np.ndarray, la, lb, bits: int) -> np.ndarray:
    """Longest common prefix (uint8) of packed symbol strings, from the
    XOR ``x`` of their codes and their uint8 lengths.

    Symbol j occupies bits [bits*j, bits*(j+1)) of a code, so the first
    disagreement is at symbol (trailing zeros of x) // bits, capped by the
    shorter length.  (x & -x) - 1 sets exactly the trailing zeros of x,
    and ``bitwise_count`` counts them into one byte.  It counts the bits of
    the absolute value, so x == 0 would count 1: codes stay below 2^62 and
    the caller sets bit 62 in one side of every XOR, so that a full match
    reads as 62 trailing zeros, past every length.
    """
    tz = np.bitwise_count((x & -x) - 1)
    return np.minimum(np.minimum(la, lb), tz // bits)


def _prefix_distance(ca, la, cb, lb, bits: int) -> np.ndarray:
    """|p| + |q| - 2 lcp(p, q), uint8, broadcast between packed strings;
    the codes ``ca`` carry bit 62 (see ``_prefix_lcp``)."""
    return la + lb - 2 * _prefix_lcp(ca ^ cb, la, lb, bits)


def _cancelled(codes: np.ndarray, first, step: int, inverses, bits: int) -> np.ndarray:
    """How many letters of each packed word cancel, in a run, against the
    symbols ``inverses``: letter t of the run is the word's symbol at
    position first + step * t, and the run ends at a mismatch or below
    position 0.  A position past the word reads 0, which is no symbol."""
    k = np.zeros(len(codes), np.int64)
    run = np.ones(len(codes), bool)
    for t, s in enumerate(inverses):
        pos = first + step * t
        symbol = (codes >> bits * np.maximum(pos, 0)) & ((1 << bits) - 1)
        run &= (pos >= 0) & (symbol == s)
        k += run
    return k


def _prefix_runs(keys, lengths, r, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of points within ``r`` of each point, at or after it, as
    (n, t) arrays of first indices and counts: for each point, one run in
    its own length and one in each of the next t - 1 lengths.  The
    points have strictly increasing prefix keys ``keys`` (see
    ``_PrefixSpace._listed_pairs``) and lengths ``lengths``.

    For x of length a, the y of length l >= a with |x| + |y| - 2 lcp
    <= r are those sharing x's prefix of length k = ceil((a + l - r) / 2)
    (at least 0, at most a when l <= a + r).  Their keys lie between
    that prefix's key, shifted up by bits*(l - k), and the same with
    every lower bit set, so one ``searchsorted`` per bound finds them.
    In x's own length the run starts at x.
    """
    n, width = len(keys), int(lengths.max(initial=0))
    r = min(math.floor(r), 2 * width)  # no distance is larger
    a = lengths[:, None]
    level = a + np.arange(max(0, min(r, width) + 1))  # x's own length, then up to r more
    present = level <= width
    level = np.minimum(level, width)
    k = np.maximum(0, (a + level - r + 1) // 2)
    shift = bits * (level - k)
    low = (keys[:, None] >> bits * (a - k)) << shift
    first = np.searchsorted(keys, low)
    first[:, :1] = np.arange(n)[:, None]
    last = np.searchsorted(keys, low | (1 << shift) - 1, side="right")
    return first, np.where(present, last - first, 0)


@dataclass(frozen=True, eq=False)
class _RunPairs:
    """The index pairs (i, j) of the runs ``first[i, t]`` up to
    ``first[i, t] + counts[i, t]``, row by row.  Each iteration expands
    them afresh into batches of index arrays, each ending with the run
    that brings it to at least ``BLOCK_PAIRS`` pairs; only the runs are
    held, read-only, and ``counts.sum()`` pairs are listed.  A caller
    that reuses the pairs holds the batches itself, as the profile memo
    ``coarse._profile_sample`` does up to the source's cap."""

    first: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.first.flags.writeable = self.counts.flags.writeable = False

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        runs_per_row = self.first.shape[1]
        first, counts = self.first.ravel(), self.counts.ravel()
        ends, total = np.cumsum(counts), counts.sum()
        start, done = 0, 0  # the batch's first run, and the pairs before it
        while done < total:
            stop = min(len(ends), int(np.searchsorted(ends, done + BLOCK_PAIRS)) + 1)
            c = counts[start:stop]
            # the pair numbered p overall, in run q, has column first[q] + p
            # less the pairs before run q
            column = np.repeat(first[start:stop] - (ends[start:stop] - c), c)
            yield (np.repeat(np.arange(start, stop) // runs_per_row, c),
                   column + np.arange(done, ends[stop - 1]))
            start, done = stop, ends[stop - 1]


class _PrefixSpace(Space):
    """A model whose standard metric is d(p, q) = |p| + |q| - 2 lcp(p, q).

    A point of at most ``_PACK_LIMIT`` symbols packs into one int64 code,
    ``_BITS`` bits per symbol, symbol j at bits [bits*j, bits*(j+1)), and
    the distances run on the prefix kernel.  Longer points and custom
    generating sets take the scalar ``_distance``, which is also the
    reference the kernel is checked against.
    """

    _BITS: int
    _PACK_LIMIT: int
    standard = True

    def _distance(self, p, q, limit=math.inf):
        """|p| + |q| - 2 lcp(p, q), comparing the points symbol by symbol."""
        p, q = self.validate(p), self.validate(q)
        lcp = 0
        for x, y in zip(p, q):
            if x != y:
                break
            lcp += 1
        return len(p) + len(q) - 2 * lcp

    def _packable(self, ps) -> bool:
        return self.standard and max(map(len, ps), default=0) <= self._PACK_LIMIT

    def _symbols(self, ps) -> np.ndarray:
        """The int64 symbols of the validated points ``ps``, flattened."""
        raise NotImplementedError

    def _symbol_matrix(self, ps) -> tuple[np.ndarray, np.ndarray]:
        """The symbols of validated points in a zero-padded int64
        point-by-position matrix, and the points' lengths."""
        lengths = np.fromiter(map(len, ps), np.intp, len(ps))
        # the flattened symbols fill the matrix row by row
        filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
        symbols = np.zeros(filled.shape, np.int64)
        symbols[filled] = self._symbols(ps)
        return symbols, lengths

    def _pack(self, ps) -> tuple[np.ndarray, np.ndarray]:
        """int64 codes and uint8 lengths of validated, packable points;
        lengths are at most 62, so every distance (<= 124) fits in uint8.
        A code is the sum of symbol j << bits*j."""
        symbols, lengths = self._symbol_matrix(ps)
        symbols <<= self._BITS * np.arange(symbols.shape[1])
        return symbols.sum(axis=1), lengths.astype(np.uint8)

    def _listed_pairs(self, ps, r):
        # listed by prefix runs for standard, packable points strictly
        # sorted by (length, natural order), as closed_ball gives them
        if not (self._all_valid(ps) and self._packable(ps)):
            return None
        symbols, lengths = self._symbol_matrix(ps)
        width = symbols.shape[1]
        # a point's key is a leading 1 bit, then its symbols, the first
        # most significant (at most bits*62 + 1 <= 63 bits): keys increase
        # with (length, natural order), and key >> bits*(|p| - k) is the
        # key of p's prefix of length k
        symbols <<= self._BITS * np.arange(width)[::-1]
        keys = (symbols.sum(axis=1) | 1 << self._BITS * width) >> self._BITS * (width - lengths)
        if np.any(keys[1:] <= keys[:-1]):
            return None
        return _RunPairs(*_prefix_runs(keys, lengths, r, self._BITS))

    def _packed(self, ps):
        # codes and lengths of standard, packable points
        self._validate_all(ps)
        return self._pack(ps) if self._packable(ps) else None

    def _kernel(self, a, b):
        """uint8 distances of the prefix kernel between packed points."""
        (ca, la), (cb, lb) = a, b
        marked = ca | (1 << 62)
        return lambda i, j: _prefix_distance(marked[i], la[i], cb[j], lb[j], self._BITS)

    def _children(self, level: list) -> list:
        """The points one level below ``level``, each point's children
        in sorted order."""
        raise NotImplementedError

    def _listed_ball(self, center, radius):
        # In the standard model a level sorted in natural order, each
        # point extended by its children in sorted order, gives the next
        # level sorted too; so the ball comes out in closed_ball's order.
        if not self.standard or center != self.basepoint:
            return None
        if radius:  # the search checks no cap for the center alone
            self._check_cap(self._ball_size(radius))
        ball, level = [center], [center]
        for _ in range(radius):
            level = self._children(level)
            ball += level
        return ball


@dataclass(frozen=True)
class FreeGroupSpace(_PrefixSpace):
    """The rank-2 free group on {a, b} as reduced strings.

    With the standard generating set the word metric is computed from the
    longest common prefix; a custom generating set (tuple of reduced
    words, symmetrized automatically) switches to breadth-first word
    length with the cap as guard.
    """

    generators: tuple[str, ...] = ("a", "b")
    cap: int = DEFAULT_CAP

    model = "free-group"
    integer_metric = True
    _BITS = 3  # 20 letters fill 60 bits
    _PACK_LIMIT = 20

    def __post_init__(self):
        for g in self.generators:
            if not g or not is_reduced(g):
                raise ValueError(f"generator must be a nonempty reduced word: {g!r}")

    @property
    def basepoint(self) -> str:
        return ""

    @property
    def standard(self) -> bool:
        return set(self.generators) in ({"a", "b"}, {"a", "A", "b", "B"})

    @cached_property
    def moves(self) -> tuple[str, ...]:
        sym = set(self.generators) | {word_inverse(g) for g in self.generators}
        return tuple(sorted(sym))

    def validate(self, p):
        if not is_reduced(p):
            raise ModelMismatch(f"expected a reduced word over {LETTERS!r}: {p!r}")
        return p

    def _all_valid(self, ps) -> bool:
        if not set(map(type, ps)) <= {str}:
            return False
        return _reduced_lines("\n".join(ps), max(len(ps) - 1, 0))

    def _distance(self, p, q, limit=math.inf):
        if self.standard:
            return super()._distance(p, q)
        delta = word_multiply(word_inverse(self.validate(p)), self.validate(q))
        return self._word_length(delta, limit)

    def neighbors(self, v: str) -> list[str]:
        return [word_multiply(v, m) for m in self.moves]

    def _translated(self, packed, translation):
        # x -> g x h for the pair of reduced words (g, h): x h, then g (x h);
        # None where g, h or a product passes the packing limit.  x h keeps
        # x's first |x| - k letters, k cancelled against h's first, and
        # appends h[k:]; g y mirrors it on y's first letters.
        if not (isinstance(translation, tuple) and len(translation) == 2
                and all(map(is_reduced, translation))):
            return None
        g, h = translation
        if max(len(g), len(h)) > self._PACK_LIMIT:
            return None
        codes, lengths = packed
        lengths = lengths.astype(np.int64)
        bits = self._BITS
        if h:
            k = _cancelled(codes, lengths - 1, -1, self._symbols([h.swapcase()]), bits)
            kept = bits * (lengths - k)
            lengths = lengths + len(h) - 2 * k
            if lengths.max(initial=0) > self._PACK_LIMIT:
                return None
            tails = self._pack([h[j:] for j in range(len(h) + 1)])[0]
            codes = (codes & ((1 << kept) - 1)) | (tails[k] << kept)
        if g:
            k = _cancelled(codes, 0, 1, self._symbols([word_inverse(g)]), bits)
            lengths = lengths + len(g) - 2 * k
            if lengths.max(initial=0) > self._PACK_LIMIT:
                return None
            heads = self._pack([g[:len(g) - j] for j in range(len(g) + 1)])[0]
            codes = heads[k] | ((codes >> bits * k) << bits * (len(g) - k))
        return codes, lengths.astype(np.uint8)

    def _ball_size(self, radius):
        return 2 * 3**radius - 1 if self.standard else None

    def _children(self, level):
        return [w + ch for w in level for ch in _CHILD_LETTERS[w[-1:]]]

    def _symbols(self, ps):
        return _LETTER_SYMBOLS[np.frombuffer("".join(ps).encode("ascii"), np.uint8)]

    def format_point(self, p) -> str:
        return p if p else "e"


def tree_vertex_value(v: tuple[int, ...]) -> int:
    """Integer encoded by a vertex's bits (index 0 = least significant)."""
    return sum(b << k for k, b in enumerate(v))


@dataclass(frozen=True)
class BinaryTreeSpace(_PrefixSpace):
    """Rooted binary tree; vertices are bit tuples, LSB first, () is the root.

    A vertex of depth n+1 is joined to the depth-n vertex obtained by
    dropping its last (most significant) bit, and the root is joined to
    (0,) and (1,).
    """

    cap: int = DEFAULT_CAP

    model = "binary-tree"
    integer_metric = True
    _BITS = 1  # depth 62 keeps the codes below 2^62
    _PACK_LIMIT = 62

    @property
    def basepoint(self) -> tuple[int, ...]:
        return ()

    def validate(self, p):
        if not isinstance(p, tuple) or not all(
            isinstance(b, (int, np.integer)) and b in (0, 1) for b in p
        ):
            raise ModelMismatch(f"expected a tuple of integer bits: {p!r}")
        return tuple(map(int, p))

    def _all_valid(self, ps) -> bool:
        flat = _integer_tuples(ps)
        return flat is not None and set(flat) <= {0, 1}

    def _symbols(self, ps):
        return np.fromiter(itertools.chain.from_iterable(ps), np.int64)

    def neighbors(self, v: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = [v + (0,), v + (1,)]
        if v:
            out.append(v[:-1])
        return out

    def _ball_size(self, radius):
        return 2 ** (radius + 1) - 1

    def _children(self, level):
        return [v + b for v in level for b in ((0,), (1,))]

    def format_point(self, p) -> str:
        return "".join(str(b) for b in p) if p else "*"


def word_metric_bfs_oracle(space: Space, r) -> dict:
    """Breadth-first distance table from the basepoint, radius <= r.

    Independent of the model's closed-form ``distance``; used as the
    acceptance oracle.  Supported for the finitely generated models
    (lattice, free group, binary tree).
    """
    radius = _as_int_radius(r)
    if not isinstance(space, (LatticeSpace, FreeGroupSpace, BinaryTreeSpace)):
        raise ValueError(f"BFS oracle is not defined for model {space.model!r}")
    # N^k steps through the ambient Z^k and keeps its own points at the end
    ambient = replace(space, signed=True) if isinstance(space, LatticeSpace) else space

    base = space.basepoint
    seen = {base: 0}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        if seen[v] == radius:
            continue
        for w in ambient.neighbors(v):
            if w not in seen:
                if len(seen) + 1 > space.cap:
                    raise CapExceeded(f"BFS oracle exceeded cap of {space.cap}")
                seen[w] = seen[v] + 1
                queue.append(w)
    return {v: seen[v] for v in space._restrict(seen)}


# ---------------------------------------------------------------------------
# numeric literals


def _number(text) -> Fraction:
    """Exact numeric literal: int, fraction 'p/q', power '2^-8', decimal.
    Anything else raises ``ValueError``, a zero denominator included."""
    text = str(text).strip()
    try:
        if "^" in text:
            base, exp = text.split("^", 1)
            return Fraction(base) ** int(exp)
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc
