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
to it, so that the cone stops its searches there.  The free group and
the tree share one packed prefix-distance kernel.  The lattice,
free-group and tree models give ``neighbors(v)``, which drives all of
their ball enumeration and breadth-first word lengths.

All lattice / word / tree distances are exact integers; no floating
point enters these models.  Ball enumeration is capped (default 10^6
points) and exceeding the cap raises ``CapExceeded`` rather than
truncating silently.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from operator import add
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

DEFAULT_CAP = 1_000_000
# pairs a distance kernel computes at once: 16k keep each int64
# intermediate at 128 KB, so a block's few of them stay in L2
BLOCK_PAIRS = 16_384

LETTERS = "aAbB"
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
# packed symbol of each letter (by its byte): 3 bits, never 0
_LETTER_SYMBOLS = np.zeros(128, dtype=np.int64)
_LETTER_SYMBOLS[[ord(ch) for ch in LETTERS]] = [1, 2, 3, 4]
_NO_LETTERS = str.maketrans("", "", LETTERS)
# a foreign character or a cancelling pair: what makes a string unreduced
_NOT_REDUCED = re.compile(r"[^aAbB]|aA|Aa|bB|Bb")


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
    """True for a string over ``aAbB`` with no cancelling pair."""
    return isinstance(w, str) and _NOT_REDUCED.search(w) is None


def enumerate_reduced_words(length: int) -> Iterator[str]:
    """All reduced words of exactly the given length (4 * 3^(n-1) of them)."""
    if length == 0:
        yield ""
        return
    for first in LETTERS:
        stack = [(first,)]
        while stack:
            w = stack.pop()
            if len(w) == length:
                yield "".join(w)
                continue
            for ch in LETTERS:
                if ch != _INVERSE[w[-1]]:
                    stack.append(w + (ch,))


# ---------------------------------------------------------------------------
# space handles


class Space:
    """Common surface of the space handles.

    Subclasses provide ``model``, ``integer_metric``, ``basepoint``,
    ``validate``, ``distance`` and may give a vectorized distance kernel,
    ``_distances_at``, from which ``pairwise`` and ``paired`` are derived.
    Graph models provide ``neighbors``, from which ``closed_ball`` and
    ``_word_length`` are derived; other models override ``closed_ball``.
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
        raise NotImplementedError

    def neighbors(self, v) -> list:
        """The points one generator step from ``v``."""
        raise NotImplementedError

    def closed_ball(self, center, r) -> list:
        """Points within distance ``r`` of ``center``, breadth-first over
        ``neighbors``; sorted by length, then in natural order."""
        center = self.validate(center)
        seen = {center: 0}
        sphere = [center]
        for _ in range(_as_int_radius(r)):
            sphere = self._next_sphere(sphere, seen)
        return sorted(self._restrict(seen), key=lambda p: (len(p), p))

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

    def _word_length(self, g) -> int:
        """Word length of ``g``: breadth-first from the basepoint, grown on
        demand and memoized."""
        memo, sphere = self._word_length_search
        while g not in memo:
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
        float model may read larger ones as inf, integer models ignore
        it.  This is the one distance kernel a model gives; this
        fallback asks the scalar ``distance``, in floats."""
        self._validate_all(ps)
        at = np.arange(len(ps))

        def dist(i, j):
            i, j = np.broadcast_arrays(at[i], at[j])
            d = [self.distance(ps[a], ps[b]) for a, b in zip(i.flat, j.flat)]
            return np.array(d, dtype=float).reshape(i.shape)

        return dist

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


def _check_radius(r):
    """``r``, once it is a finite radius >= 0."""
    if not math.isfinite(r):
        raise ValueError("radius must be finite")
    if r < 0:
        raise ValueError("radius must be >= 0")
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

    def distance(self, p, q) -> int:
        p = self.validate(p)
        q = self.validate(q)
        delta = tuple(b - a for a, b in zip(p, q))
        if self.standard:
            return sum(abs(c) for c in delta)
        return self._word_length(delta)

    def neighbors(self, v: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple(map(add, v, m)) for m in self.moves]

    def _restrict(self, points):
        # N^k balls are enumerated in the ambient Z^k
        if self.signed:
            return points
        return [p for p in points if all(c >= 0 for c in p)]

    def _coords(self, ps) -> np.ndarray:
        """Validated points as an int64 array while every l1 distance among
        them fits in int64, else as an array of exact Python integers."""
        limit = np.iinfo(np.int64).max // (2 * self.rank)
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

    def _distances_at(self, ps, limit=math.inf):
        if not self.standard:
            return super()._distances_at(ps)
        self._validate_all(ps)
        a = self._coords(ps)
        return lambda i, j: np.abs(a[i] - a[j]).sum(axis=-1)

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


class _PrefixSpace(Space):
    """A model whose standard metric is d(p, q) = |p| + |q| - 2 lcp(p, q).

    A point of at most ``_PACK_LIMIT`` symbols packs into one int64 code,
    ``_BITS`` bits per symbol, symbol j at bits [bits*j, bits*(j+1)), and
    the distances run on the prefix kernel.  Longer points and custom
    generating sets take the scalar ``distance``.
    """

    _BITS: int
    _PACK_LIMIT: int
    standard = True

    def _packable(self, ps) -> bool:
        return self.standard and max(map(len, ps), default=0) <= self._PACK_LIMIT

    def _symbols(self, ps) -> np.ndarray:
        """The int64 symbols of the validated points ``ps``, flattened."""
        raise NotImplementedError

    def _pack(self, ps) -> tuple[np.ndarray, np.ndarray]:
        """int64 codes and uint8 lengths of validated, packable points;
        lengths are at most 62, so every distance (<= 124) fits in uint8."""
        lengths = np.fromiter(map(len, ps), np.intp, len(ps))
        # the flattened symbols fill a zero-padded point-by-position
        # matrix row by row; a code is the sum of symbol j << bits*j
        filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
        symbols = np.zeros(filled.shape, np.int64)
        symbols[filled] = self._symbols(ps)
        symbols <<= self._BITS * np.arange(filled.shape[1])
        return symbols.sum(axis=1), lengths.astype(np.uint8)

    def _distances_at(self, ps, limit=math.inf):
        """uint8 distances of the prefix kernel over ``ps``, packed once."""
        self._validate_all(ps)
        if not self._packable(ps):
            return super()._distances_at(ps)
        codes, lengths = self._pack(ps)
        marked = codes | (1 << 62)
        return lambda i, j: _prefix_distance(
            marked[i], lengths[i], codes[j], lengths[j], self._BITS
        )


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
        # newline-joined, the words leave only their separators once the
        # letters are deleted, and hold no cancelling pair
        joined = "\n".join(ps)
        return joined.translate(_NO_LETTERS) == "\n" * max(len(ps) - 1, 0) and not any(
            pair in joined for pair in ("aA", "Aa", "bB", "Bb")
        )

    def distance(self, p, q) -> int:
        p = self.validate(p)
        q = self.validate(q)
        if self.standard:
            lcp = 0
            for x, y in zip(p, q):
                if x != y:
                    break
                lcp += 1
            return len(p) + len(q) - 2 * lcp
        return self._word_length(word_multiply(word_inverse(p), q))

    def neighbors(self, v: str) -> list[str]:
        return [word_multiply(v, m) for m in self.moves]

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

    def distance(self, p, q) -> int:
        p = self.validate(p)
        q = self.validate(q)
        # XOR of the encoded values locates the first disagreeing bit
        x = tree_vertex_value(p) ^ tree_vertex_value(q)
        if x == 0:
            lcp = min(len(p), len(q))
        else:
            lcp = min((x & -x).bit_length() - 1, len(p), len(q))
        return len(p) + len(q) - 2 * lcp

    def neighbors(self, v: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = [v + (0,), v + (1,)]
        if v:
            out.append(v[:-1])
        return out

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
# configuration


def _parse_generators_lattice(text: str, rank: int) -> tuple[tuple[int, ...], ...]:
    gens = []
    for part in text.split(","):
        coords = tuple(int(c) for c in part.split())
        if len(coords) != rank:
            raise ValueError(f"generator {part!r} does not have rank {rank}")
        gens.append(coords)
    return tuple(gens)


_MODEL_NAMES = {"f2": "free-group", "tree": "binary-tree", "t2": "binary-tree",
                "binary-tree": "binary-tree", "cone": "cone"}


def parse_space_name(name) -> tuple[str, int, bool]:
    """The model a ``space`` value names, as (model, rank, signed); rank
    and signed describe Z^k / N^k and read 0, True elsewhere.  Reads the
    name only and builds nothing; raises ``ValueError`` for a name no
    model has."""
    low = str(name).strip().lower()
    if not low:
        raise ValueError("missing required field 'space'")
    if low.startswith(("z^", "n^")) or low in ("z", "n"):
        try:
            rank = int(low[2:]) if "^" in low else 1
        except ValueError:
            rank = 0
        if rank < 1:
            raise ValueError(f"lattice rank must be a positive integer: {name!r}")
        return "lattice", rank, low.startswith("z")
    if low not in _MODEL_NAMES:
        raise ValueError(f"unknown space model {name!r}")
    return _MODEL_NAMES[low], 0, True


def space_from_config(cfg: dict) -> Space:
    """Build a space handle from a flat key-value mapping.

    Recognized ``space`` values: ``Z^k``, ``N^k`` (k a positive integer),
    ``F2``, ``tree`` (or ``T2``), ``cone``.  Lattice and free-group
    handles accept an optional ``generators`` entry; cone handles are
    delegated to :mod:`coarselab.cone` and use its grid keys.
    """
    model, rank, signed = parse_space_name(cfg.get("space", ""))
    cap = int(cfg.get("cap", DEFAULT_CAP))
    if model == "lattice":
        gens = None
        if "generators" in cfg:
            gens = _parse_generators_lattice(str(cfg["generators"]), rank)
        return LatticeSpace(rank=rank, signed=signed, generators=gens, cap=cap)
    if model == "free-group":
        gens = ("a", "b")
        if "generators" in cfg:
            gens = tuple(w.strip() for w in str(cfg["generators"]).split(","))
        return FreeGroupSpace(generators=gens, cap=cap)
    if model == "binary-tree":
        return BinaryTreeSpace(cap=cap)
    from . import cone

    return cone.cone_space_from_config(cfg, cap=cap)
