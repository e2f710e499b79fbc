"""Finite-scale certifiers for coarse-map properties.

Every verdict here is scale-qualified: a finite sample can certify a
property only "at scale", never globally, and the report schema keeps
that qualifier explicit.  Refutations, by contrast, always carry a
concrete witness pair that a single distance evaluation re-checks.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .spaces import (
    BLOCK_PAIRS,
    BinaryTreeSpace,
    Space,
    _check_radius,
    word_metric_bfs_oracle,
)

CERTIFIED = "certified-at-scale"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

DEFAULT_RADII = (1.0, 2.0, 4.0, 8.0, 16.0)

CSV_HEADER = ("property", "R_or_B", "value", "witness_src", "witness_dst")


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
    if not mask.size:  # argmax has no answer for an empty array
        return None
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


def _sample_radius(space: Space, sample_radius):
    """``sample_radius``, checked; by default 9 on the tree, else 8."""
    if sample_radius is None:
        return 9 if isinstance(space, BinaryTreeSpace) else 8
    return _check_radius(sample_radius, "sample ball radius")


def _horizons(radii: list, domain_radius) -> list[int]:
    """The properness domain windows, a quarter, a half and all of
    ``domain_radius`` (by default 2 max R + 4) rounded up; the last is
    the domain ball's radius."""
    if domain_radius is None:
        domain_radius = 2 * max(radii) + 4
    if not math.isfinite(domain_radius):
        raise ValueError("domain radius must be finite")
    if domain_radius <= 0:
        raise ValueError("domain radius must be > 0")
    return sorted({math.ceil(domain_radius / 4), math.ceil(domain_radius / 2),
                   math.ceil(domain_radius)})


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


def _balls(balls) -> list:
    """Ball radii in their given order; an empty, non-finite, negative or
    not strictly increasing list is an error."""
    balls = list(balls)
    if not balls:
        raise ValueError("ball radii must be non-empty")
    if not all(map(math.isfinite, balls)):
        raise ValueError("ball radii must be finite")
    if min(balls) < 0:
        raise ValueError("ball radii must be >= 0")
    if any(b2 <= b1 for b1, b2 in zip(balls, balls[1:])):
        raise ValueError("ball radii must be strictly increasing")
    return balls


def _check_window(window_radius, balls: list):
    """Raise unless the Higson window holds the largest of ``_balls``."""
    if window_radius < balls[-1]:
        raise ValueError("window radius is smaller than the largest ball")


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
    profile on the sampled window and proves nothing beyond it.  The
    source side is reused for one (source, sample radius, max R) at a
    time: where the source lists at most ``source.cap`` pairs, their
    index pairs and source distances are held, and a call computes only
    the target distances and the per-radius maxima; otherwise the pairs
    are found afresh, a batch at a time.  A translation of the source
    into itself is applied to the sample's array form (``_translated``);
    any other map, point by point.
    """
    radii = _radii(DEFAULT_RADII if radii is None else radii)
    # Only pairs in E_R for the largest R can count, so the target
    # measures only those, a batch at a time.  A metric table is
    # symmetric, so its first row-major maximum lies on or above the
    # diagonal.  Float (cone) distances need not be exactly symmetric
    # and keep full rows.
    upper = source.integer_metric and target.integer_metric
    pts, packed, src, listed, batches = _profile_sample(
        source, _sample_radius(source, sample_radius), radii[-1], upper
    )
    moved = _translated(f, source, target, packed)
    if moved is None:
        tgt = target._distances_at([f(p) for p in pts])
    else:
        tgt = target._kernel(moved, moved)

    if batches is None:  # none held: listed afresh, or kept from source blocks
        batches = _entourage_batches(pts, src, radii[-1], upper, listed)
    best = {r: (-math.inf, None, None) for r in radii}
    for i, j, dsrc in batches:
        dtgt = tgt(i, j)
        if dtgt.dtype != np.uint8:
            dtgt = dtgt.astype(float)  # other kernels' distances compare as floats
        for r in radii:
            hit = _masked_max(dsrc <= _bound(r, dsrc), dtgt)
            if hit is not None and hit[0] > best[r][0]:
                best[r] = (hit[0], pts[i[hit[1]]], pts[j[hit[1]]])

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


@lru_cache(maxsize=1)
def _profile_sample(source: Space, sample_radius, r, upper: bool):
    """The source side of a profile: the sample ball's points, their
    array form (``Space._packed``, or None), the source kernel limited
    to ``r``, the source's listing of the pairs within ``r`` (None
    where it gives none, or unless ``upper``), and the batches
    ``(i, j, d)`` of ``_entourage_batches``, held read-only when the
    listing has at most ``source.cap`` pairs, else None.

    The held batches take 17 bytes a pair (two int64 indices and a uint8
    distance), so at most 17 B x cap; a listing over the cap keeps only
    its compact runs, and its pairs are expanded afresh on each call."""
    pts = tuple(source.closed_ball(source.basepoint, sample_radius))
    listed = source._listed_pairs(pts, r) if upper else None
    packed = source._packed(pts)
    src = source._distances_at(pts, limit=r) if packed is None else source._kernel(packed, packed)
    held = None
    if listed is not None and listed.counts.sum() <= source.cap:
        held = tuple(_entourage_batches(pts, src, r, upper, listed))
        for batch in held:
            for a in batch:
                a.flags.writeable = False
    return pts, packed, src, listed, held


def _translated(f: Callable, source: Space, target: Space, packed):
    """The array form of ``f``'s images of the points whose array form is
    ``packed``, when ``f`` is a translation of ``source`` (it carries
    ``translation``) into the same space and the model can move them
    exactly (``Space._translated``); else None, and the caller maps the
    points one by one."""
    translation = getattr(f, "translation", None)
    if translation is None or packed is None or target != source:
        return None
    return source._translated(packed, translation)


def _base_distances(space: Space, packed) -> np.ndarray:
    """Float distances from the basepoint to the points whose array form
    is ``packed``."""
    return space._kernel(space._packed([space.basepoint]), packed)(0, slice(None)).astype(float)


def _entourage_batches(pts: Sequence, src: Callable, r, upper: bool, listed):
    """The index pairs (i, j) of ``pts`` within ``r`` under the source
    kernel ``src``, with their distances d: row-major batches
    ``(i, j, d)``, each but the last of at least ``BLOCK_PAIRS`` pairs,
    j >= i when ``upper``.  They are the source's listing ``listed``
    (``Space._listed_pairs``) where it gives one; otherwise they are
    kept from blocks of ``src`` rows, rows i0:i1 reading columns i0:
    when ``upper``."""
    if listed is not None:
        for i, j in listed:
            yield i, j, src(i, j)
        return
    n = len(pts)
    batch, selected = [], 0
    i0 = 0
    while i0 < n:
        j0 = i0 if upper else 0
        i1 = min(n, i0 + max(1, BLOCK_PAIRS // (n - j0)))
        d = src(np.arange(i0, i1)[:, None], np.arange(j0, n))
        i, j = np.divmod(np.flatnonzero(d <= _bound(r, d)), n - j0)
        i += i0
        j += j0
        if upper:  # the block's rows past i0 reach a little below the diagonal
            i, j = i[j >= i], j[j >= i]
        if len(i):
            batch.append((i, j, d[i - i0, j - j0]))
            selected += len(i)
        if selected >= BLOCK_PAIRS:
            yield tuple(np.concatenate(a) for a in zip(*batch))
            batch, selected = [], 0
        i0 = i1
    if batch:
        yield tuple(np.concatenate(a) for a in zip(*batch))


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
    The domain side is reused for one (source, domain radius) at a time.
    A translation of the source into itself is applied to the domain's
    array form, as in ``bornologous_profile``; the witness image is
    ``f`` of the witness point.
    """
    radii = _radii(radii)
    horizons = _horizons(radii, domain_radius)

    pts, packed, dist_src = _properness_domain(source, horizons[-1])
    moved = _translated(f, source, target, packed)
    if moved is None:
        dist_img = distances_from(target, target.basepoint, [f(p) for p in pts])
    else:
        dist_img = _base_distances(target, moved)
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
            witness_dst = target.format_point(f(pts[far[1]]))
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


@lru_cache(maxsize=1)
def _properness_domain(source: Space, radius):
    """The points of the domain ball B(x0, ``radius``), their array form
    (``Space._packed``, or None) and their read-only distances from the
    basepoint x0."""
    pts = tuple(source.closed_ball(source.basepoint, radius))
    packed = source._packed(pts)
    if packed is None:
        dist = distances_from(source, source.basepoint, pts)
    else:
        dist = _base_distances(source, packed)
    dist.flags.writeable = False
    return pts, packed, dist


def closeness_bound(
    f: Callable,
    g: Callable,
    source: Space,
    sample_radius=None,
) -> CoarseReport:
    """sup d(f x, g x) over the sample ball, tracked across nested radii.

    Close-at-scale needs the sup to stop growing between the two largest
    sample radii; a growing sup leaves the verdict inconclusive and the
    table records the trend.
    """
    sample_radius = _sample_radius(source, sample_radius)
    sub = sorted({math.ceil(sample_radius / 2), math.ceil(3 * sample_radius / 4),
                  math.ceil(sample_radius)})

    pts = source.closed_ball(source.basepoint, sub[-1])
    dist_src = distances_from(source, source.basepoint, pts)
    fs = [f(p) for p in pts]
    gs = [g(p) for p in pts]
    gap = np.asarray(source.paired(fs, gs), dtype=float)

    rows = []
    for h in sub:
        value, idx = _masked_max(dist_src <= h, gap)  # the basepoint is always in
        rows.append(
            ScaleRow(float(h), value, source.format_point(fs[idx]), source.format_point(gs[idx]))
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
) -> HigsonDefectTable:
    """sup |f(y) - f(x)| over pairs with d(x, y) <= R lying outside B x B.

    Pairs with exactly one endpoint inside B count.  A decaying table
    supports, but never proves, the vanishing-at-infinity condition.
    A function with a ``radial`` attribute g is f(p) = g(d(x0, p)) about
    the basepoint x0, and is evaluated as g on the window's distances.
    """
    balls = _balls(balls)
    _check_radius(entourage_radius, "entourage radius")
    if window_radius is None:
        window_radius = math.ceil(1.05 * balls[-1]) + 2 * math.ceil(entourage_radius)
    _check_window(window_radius, balls)

    points, base_dist, values = _window(f, space, window_radius)

    # enumerate the entourage pairs once; per-ball exclusion is a mask
    src, dst = space._entourage(points, entourage_radius)
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
    return HigsonDefectTable(tuple(rows))


def _window(f: Callable, space: Space, radius):
    """The points of B(x0, radius), their distances from the basepoint x0,
    and the values of ``f`` on them; a radial ``f`` is evaluated on the
    distances, with no distance call."""
    try:
        table = word_metric_bfs_oracle(space, radius)
    except ValueError:
        pts = space.closed_ball(space.basepoint, radius)
        table = dict(zip(pts, distances_from(space, space.basepoint, pts)))
    points, dist = list(table), list(table.values())
    radial = getattr(f, "radial", None)
    if radial is None:
        values = [float(f(p)) for p in points]
    else:
        values = [float(radial(d)) for d in dist]
    return points, np.array(dist), np.array(values)

