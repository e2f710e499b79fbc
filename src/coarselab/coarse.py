"""Finite-scale certifiers for coarse-map properties.

Every verdict here is scale-qualified: a finite sample can certify a
property only "at scale", never globally, and the report schema keeps
that qualifier explicit.  Refutations, by contrast, always carry a
concrete witness pair that a single distance evaluation re-checks.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .spaces import (
    BLOCK_PAIRS,
    BinaryTreeSpace,
    LatticeSpace,
    Space,
    word_metric_bfs_oracle,
)

CERTIFIED = "certified-at-scale"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

DEFAULT_RADII = (1.0, 2.0, 4.0, 8.0, 16.0)

CSV_HEADER = ("property", "R_or_B", "value", "witness_src", "witness_dst")


@dataclass(frozen=True)
class ControlledSetSpec:
    """The entourage E_R = {(x, y) : d(x, y) <= R} of the metric coarse
    structure."""

    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("entourage radius must be >= 0")

    def contains(self, space: Space, p, q) -> bool:
        return space.distance(p, q) <= self.radius


@dataclass(frozen=True)
class ScaleRow:
    scale: float
    value: float
    witness_src: str = ""
    witness_dst: str = ""


@dataclass(frozen=True)
class CoarseReport:
    """Scale table plus verdict for one coarse-map property.

    ``rows`` hold (input scale, witnessed value, witness pair); for
    bornologous profiles an affine bound S(R) <= slope * R + offset is
    fitted over the observed data.
    """

    prop: str
    rows: tuple[ScaleRow, ...]
    verdict: str
    affine_slope: float | None = None
    affine_offset: float | None = None
    counterexample: tuple[str, str] | None = None
    notes: str = ""

    def value_at(self, scale: float) -> float:
        for row in self.rows:
            if row.scale == scale:
                return row.value
        raise KeyError(f"no row at scale {scale}")

    def to_csv_rows(self) -> list[tuple]:
        return [
            (self.prop, row.scale, row.value, row.witness_src, row.witness_dst)
            for row in self.rows
        ]

    def to_csv(self) -> str:
        return rows_to_csv(self.to_csv_rows())

    def to_json_dict(self) -> dict:
        return {
            "property": self.prop,
            "verdict": self.verdict,
            "scale_table": [
                {
                    "scale": row.scale,
                    "value": row.value,
                    "witness_src": row.witness_src,
                    "witness_dst": row.witness_dst,
                }
                for row in self.rows
            ],
            "affine_slope": self.affine_slope,
            "affine_offset": self.affine_offset,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class HigsonDefectTable:
    """Per-ball suprema of |f(y) - f(x)| over an entourage, outside B x B."""

    function_id: str
    entourage_radius: float
    rows: tuple[ScaleRow, ...]

    def to_csv(self) -> str:
        return rows_to_csv(
            ("higson-defect", row.scale, row.value, row.witness_src, row.witness_dst)
            for row in self.rows
        )


def rows_to_csv(rows: Iterable[tuple], header: Sequence[str] = CSV_HEADER) -> str:
    """CSV text with a header line; floats are written with ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def distances_from(space: Space, p, pts: Sequence) -> np.ndarray:
    """Float distances from ``p`` to each of ``pts``."""
    return np.asarray(space.pairwise([p], pts), dtype=float).ravel()


def _masked_max(mask: np.ndarray, values: np.ndarray) -> tuple[float, int] | None:
    """The largest of ``values`` where ``mask`` holds, with its first flat
    index; None when the mask selects nothing.  Unsigned values are masked
    to 0 by one multiply, which stays in their dtype; others to -inf."""
    if values.dtype.kind == "u":
        masked = values * mask
    else:
        masked = np.where(mask, values, -math.inf)
    k = int(np.argmax(masked))
    if not mask.flat[k]:
        # the maximum is the fill: every selected value equals it, if any
        k = int(np.argmax(mask))
        if not mask.flat[k]:
            return None
    return float(masked.flat[k]), k


def default_sample_radius(space: Space) -> int:
    return 9 if isinstance(space, BinaryTreeSpace) else 8


def _sample_radius(space: Space, sample_radius):
    if sample_radius is None:
        return default_sample_radius(space)
    if sample_radius < 0:
        raise ValueError("sample ball radius must be >= 0")
    return sample_radius


def _radii(radii) -> list:
    """Sorted radii; an empty, non-finite or repeated list is an error."""
    radii = sorted(radii)
    if not radii:
        raise ValueError("radii must be non-empty")
    if not all(map(math.isfinite, radii)):
        raise ValueError("radii must be finite")
    if len(set(radii)) < len(radii):
        raise ValueError("radii must be distinct")
    return radii


def _bound(r, d: np.ndarray):
    """The radius ``r`` as a bound on distances ``d``: an integer array
    compares with floor(r) in its own dtype."""
    return math.floor(r) if d.dtype.kind in "iu" else r


def _fit_affine(radii: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Best observational bound S(R) <= c R + b.

    Slope c = 1 with the minimal offset is preferred (the bounds of
    interest have that shape); least-squares slope is the fallback when
    the observed growth rate exceeds 1.
    """
    if len(radii) == 1:
        return 1.0, float(values[0] - radii[0])
    ls_slope = float(np.polyfit(radii, values, 1)[0])
    if ls_slope <= 1.0 + 1e-9:
        return 1.0, float(np.max(values - radii))
    return ls_slope, float(np.max(values - ls_slope * radii))


def bornologous_profile(
    f: Callable,
    source: Space,
    target: Space,
    radii: Sequence[float] | None = None,
    sample_radius=None,
) -> CoarseReport:
    """Displacement profile S(R) = max d(f x, f y) over sampled pairs with
    d(x, y) <= R.

    The verdict is always ``certified-at-scale``: finite data bounds the
    profile on the sampled window and proves nothing beyond it.
    """
    radii = _radii(DEFAULT_RADII if radii is None else radii)
    pts = source.closed_ball(source.basepoint, _sample_radius(source, sample_radius))
    images = [f(p) for p in pts]
    src, tgt = source._distances_at(pts, limit=radii[-1]), target._distances_at(images)

    # Only pairs in E_R for the largest R can count, so each block of
    # source distances keeps those and the target measures only them, a
    # batch at a time.  A metric table is symmetric, so its first
    # row-major maximum lies on or above the diagonal, and rows i0:i1
    # need only columns i0: .  Float (cone) distances need not be
    # exactly symmetric and keep full rows.
    upper = source.integer_metric and target.integer_metric
    n = len(pts)
    best = {r: (-math.inf, None, None) for r in radii}
    batch = []  # (rows, columns, source distances) of selected pairs, row-major

    def reduce_batch():
        i, j, dsrc = (np.concatenate(a) for a in zip(*batch))
        batch.clear()
        dtgt = tgt(i, j)
        if dtgt.dtype != np.uint8:
            dtgt = dtgt.astype(float)  # other kernels' distances compare as floats
        for r in radii:
            hit = _masked_max(dsrc <= _bound(r, dsrc), dtgt)
            if hit is not None and hit[0] > best[r][0]:
                best[r] = (hit[0], pts[i[hit[1]]], pts[j[hit[1]]])

    selected = 0
    i0 = 0
    while i0 < n:
        j0 = i0 if upper else 0
        i1 = min(n, i0 + max(1, BLOCK_PAIRS // (n - j0)))
        d = src(np.arange(i0, i1)[:, None], np.arange(j0, n))
        i, j = np.divmod(np.flatnonzero(d <= _bound(radii[-1], d)), n - j0)
        i += i0
        j += j0
        if upper:  # the block's rows past i0 reach a little below the diagonal
            i, j = i[j >= i], j[j >= i]
        if len(i):
            batch.append((i, j, d[i - i0, j - j0]))
            selected += len(i)
        if selected >= BLOCK_PAIRS:
            reduce_batch()
            selected = 0
        i0 = i1
    if batch:
        reduce_batch()

    rows = []
    for r in radii:
        val, p, q = best[r]
        if p is None:
            rows.append(ScaleRow(float(r), 0.0))
        else:
            rows.append(
                ScaleRow(float(r), val, source.format_point(p), source.format_point(q))
            )
    slope, offset = _fit_affine(
        np.array([row.scale for row in rows]), np.array([row.value for row in rows])
    )
    return CoarseReport(
        prop="bornologous",
        rows=tuple(rows),
        verdict=CERTIFIED,
        affine_slope=slope,
        affine_offset=offset,
        notes=f"sample ball of {len(pts)} points",
    )


def properness_table(
    f: Callable,
    source: Space,
    target: Space,
    radii: Sequence[float],
    domain_radius=None,
) -> CoarseReport:
    """Preimage cardinalities of target balls, watched across growing
    domain horizons.

    A radius refutes properness at scale when its preimage reaches the
    edge of every domain window beyond r + d(y0, f(x0)) + 1, and there
    are at least two such windows (the map re-enters a bounded set
    unboundedly often as far as the desk can see); no isometry or group
    translation has a preimage point that far out.  Certification
    requires every preimage to sit strictly inside the final window.
    """
    radii = _radii(radii)
    if domain_radius is None:
        domain_radius = 2 * max(radii) + 4
    if domain_radius <= 0:
        raise ValueError("domain radius must be > 0")
    horizons = sorted({math.ceil(domain_radius / 4), math.ceil(domain_radius / 2),
                       math.ceil(domain_radius)})

    pts = source.closed_ball(source.basepoint, horizons[-1])
    dist_src = distances_from(source, source.basepoint, pts)
    images = [f(p) for p in pts]
    dist_img = distances_from(target, target.basepoint, images)
    offset = dist_img[int(np.argmin(dist_src))]  # d(y0, f(x0)); x0 is the one point at 0

    rows = []
    counterexample = None  # the witness pair of the first refuting radius
    bounded = True
    for r in radii:
        sel = dist_img <= r
        far = _masked_max(sel, dist_src)
        witness_src = witness_dst = ""
        if far is not None:
            if far[0] > horizons[-1] - 1 + 1e-9:
                bounded = False  # preimage touches the final window edge
            witness_src = source.format_point(pts[far[1]])
            witness_dst = target.format_point(images[far[1]])
        # every sampled point lies within the last horizon
        rows.append(ScaleRow(float(r), float(sel.sum()), witness_src, witness_dst))
        outer = [h for h in horizons if h > r + offset + 1]
        if counterexample is None and len(outer) >= 2 and all(
            (sel & (dist_src >= h - 1 - 1e-9) & (dist_src <= h)).any() for h in outer
        ):
            counterexample = (witness_src, witness_dst)

    verdict = REFUTED if counterexample else CERTIFIED if bounded else INCONCLUSIVE
    return CoarseReport(
        prop="proper",
        rows=tuple(rows),
        verdict=verdict,
        counterexample=counterexample,
        notes=f"domain horizons {horizons}",
    )


def closeness_bound(
    f: Callable,
    g: Callable,
    source: Space,
    sample_radius=None,
    target: Space | None = None,
) -> CoarseReport:
    """sup d(f x, g x) over the sample ball, tracked across nested radii.

    Close-at-scale needs the sup to stop growing between the two largest
    sample radii; a growing sup leaves the verdict inconclusive and the
    table records the trend.
    """
    target = target or source
    sample_radius = _sample_radius(source, sample_radius)
    sub = sorted({math.ceil(sample_radius / 2), math.ceil(3 * sample_radius / 4),
                  math.ceil(sample_radius)})

    pts = source.closed_ball(source.basepoint, sub[-1])
    dist_src = distances_from(source, source.basepoint, pts)
    fs = [f(p) for p in pts]
    gs = [g(p) for p in pts]
    gap = np.asarray(target.paired(fs, gs), dtype=float)

    rows = []
    for h in sub:
        value, idx = _masked_max(dist_src <= h, gap)  # the basepoint is always in
        rows.append(
            ScaleRow(float(h), value, target.format_point(fs[idx]), target.format_point(gs[idx]))
        )
    stable = len(rows) < 2 or math.isclose(
        rows[-1].value, rows[-2].value, rel_tol=1e-12, abs_tol=1e-12
    )
    return CoarseReport(
        prop="close",
        rows=tuple(rows),
        verdict=CERTIFIED if stable else INCONCLUSIVE,
        notes="sup attained and stable" if stable else "sup still growing at window edge",
    )


def higson_defect(
    f: Callable,
    space: Space,
    entourage_radius: float,
    balls: Sequence[float],
    window_radius=None,
    function_id: str = "f",
) -> HigsonDefectTable:
    """sup |f(y) - f(x)| over pairs with d(x, y) <= R lying outside B x B.

    Pairs with exactly one endpoint inside B count.  A decaying table
    supports, but never proves, the vanishing-at-infinity condition.
    """
    balls = list(balls)
    if any(b2 <= b1 for b1, b2 in zip(balls, balls[1:])):
        raise ValueError("ball radii must be strictly increasing")
    if entourage_radius < 0:
        raise ValueError("entourage radius must be >= 0")
    if window_radius is None:
        window_radius = math.ceil(1.05 * max(balls)) + 2 * math.ceil(entourage_radius)
    if window_radius < max(balls):
        raise ValueError("window radius is smaller than the largest ball")

    try:
        table = word_metric_bfs_oracle(space, window_radius)
    except ValueError:
        pts = space.closed_ball(space.basepoint, window_radius)
        table = dict(zip(pts, distances_from(space, space.basepoint, pts)))
    points = list(table)
    base_dist = np.array([table[p] for p in points])
    values = np.array([float(f(p)) for p in points])

    # enumerate the entourage pairs once; per-ball exclusion is a mask
    if isinstance(space, LatticeSpace):
        src, dst = _translated_entourage(space, points, entourage_radius)
    else:
        src, dst = _ball_entourage(space, points, entourage_radius)
    gaps = np.abs(values[dst] - values[src])

    rows = []
    for b in balls:
        hit = _masked_max(~((base_dist[src] <= b) & (base_dist[dst] <= b)), gaps)
        if hit is None:
            rows.append(ScaleRow(float(b), 0.0))
        else:
            sup, k = hit
            rows.append(ScaleRow(float(b), sup, space.format_point(points[src[k]]),
                                 space.format_point(points[dst[k]])))
    return HigsonDefectTable(
        function_id=function_id,
        entourage_radius=float(entourage_radius),
        rows=tuple(rows),
    )


def _ball_entourage(space: Space, points: list, radius: float):
    """Index pairs (i, j), i < j, of window points within ``radius``: one
    ``closed_ball`` per source, sources in window order, partners in ball
    order."""
    index = {p: i for i, p in enumerate(points)}
    src_ids, dst_ids = [], []
    for i, p in enumerate(points):
        for q in space.closed_ball(p, radius):
            j = index.get(q)
            if j is not None and j > i:  # partner inside the window, unordered
                src_ids.append(i)
                dst_ids.append(j)
    return np.array(src_ids, dtype=np.int64), np.array(dst_ids, dtype=np.int64)


def _translated_entourage(space: LatticeSpace, points: list, radius: float):
    """The pairs of ``_ball_entourage`` on a lattice, whose word metric is
    translation-invariant: B(p, R) = p + B(0, R).

    The offsets B(0, R) come from the signed ambient lattice, so N^k keeps
    the negative ones.  Each point gets a mixed-radix key, exact (int64,
    or Python integers when the key range passes int64), that is linear
    in its coordinates, so the key of p + o is key(p) + key(o) and one
    sorted search finds which translates are window points.  Offsets stay
    in ``closed_ball``'s lexicographic order, which translation keeps, so
    the pairs come in the same order as ball by ball.
    """
    ambient = dataclasses.replace(space, signed=True)
    offsets = ambient.closed_ball(ambient.basepoint, radius)
    coords, steps = space._coords(points), space._coords(offsets)
    lo = [int(a) + int(b) for a, b in zip(coords.min(axis=0), steps.min(axis=0))]
    hi = [int(a) + int(b) for a, b in zip(coords.max(axis=0), steps.max(axis=0))]
    spans = [h - l + 1 for l, h in zip(lo, hi)]
    dtype = np.int64 if math.prod(spans) <= np.iinfo(np.int64).max else object
    radix = np.array([math.prod(spans[d + 1:]) for d in range(len(spans))], dtype=dtype)
    keys = ((coords.astype(dtype) - np.array(lo, dtype=dtype)) * radix).sum(axis=1)
    shifts = (steps.astype(dtype) * radix).sum(axis=1)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    src, dst = [], []
    # 64k candidates a chunk
    chunk = max(1, 65_536 // len(shifts))
    for i0 in range(0, len(points), chunk):
        cand = keys[i0:i0 + chunk, None] + shifts
        pos = np.minimum(np.searchsorted(sorted_keys, cand), len(points) - 1)
        j = order[pos]
        ids = np.arange(i0, i0 + len(cand))
        rows, cols = np.nonzero((sorted_keys[pos] == cand) & (j > ids[:, None]))
        src.append(rows + i0)
        dst.append(j[rows, cols])
    return np.concatenate(src), np.concatenate(dst)
