"""Metric cones over finite path-metric graphs.

A cone point is (node, height); all height-0 points are identified into
the apex.  A path's length charges vertical movement at cost 1 and
angular movement at height t at cost lambda(t) per unit of base
distance, lambda continuous with lambda(t) = 0 iff t = 0.  The exact
distance is an infimum over paths of a supremum over subdivisions; the
computable handle here is a weighted graph on a finite height grid
whose shortest paths give an upper bound that decreases under grid
refinement, reported together with the trivial vertical lower bound so
the discretization error stays visible.

Full grid distances come from the one-height fold where it is sure to
give a Dijkstra search's float bits: on a grid whose base edges all have
one length and whose rows' horizontal steps are far enough apart (see
``_HeightFold``), some shortest path does all its horizontal travel at
one height, and the least over heights of each such path's left-to-right
sum is the distance.  Searches that stop at a threshold (``_near``,
``closed_ball``, the compactification diagnostic) and full distances on
every other grid run a bounded or full Dijkstra search,
``ConeSpace._row_blocks``.

The grid keys of a config are read in :mod:`coarselab.cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

from .coarse import rows_to_csv
from .spaces import BLOCK_PAIRS, DEFAULT_CAP, ModelMismatch, Space, _check_radius, _number

APEX = "*"

# sources per Dijkstra call of ConeSpace._row_blocks, the search behind
# every cone distance the fold does not give: bounds the rows held in
# memory at once
_PAIRED_ROWS = 128


@dataclass(frozen=True)
class LambdaFunction:
    """Angular weight profile lambda: [0, inf) -> [0, inf).

    ``increasing_unbounded`` asserts monotone growth without bound; the
    compactification diagnostic requires that flag and refuses to run
    without it.
    """

    tag: str
    fn: Callable[[float], float]
    increasing_unbounded: bool = False

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("heights are non-negative")
        return float(self.fn(t))

    @staticmethod
    def linear() -> "LambdaFunction":
        return LambdaFunction("linear", lambda t: t, increasing_unbounded=True)

    @staticmethod
    def sqrt() -> "LambdaFunction":
        return LambdaFunction("sqrt", math.sqrt, increasing_unbounded=True)

    @staticmethod
    def from_table(points: Sequence[tuple[float, float]],
                   increasing_unbounded: bool = False) -> "LambdaFunction":
        """Piecewise-linear interpolation through (t, lambda(t)) pairs."""
        pts = sorted((float(t), float(v)) for t, v in points)
        ts = np.array([t for t, _ in pts])
        vs = np.array([v for _, v in pts])

        def fn(t: float) -> float:
            return float(np.interp(t, ts, vs))

        return LambdaFunction("table", fn, increasing_unbounded)

    def validate_on_grid(self, heights: Sequence[float]):
        vals = [self(t) for t in heights]
        for t, v in zip(heights, vals):
            if (v == 0) != (t == 0):
                raise ValueError(f"need lambda(t) = 0 iff t = 0; got lambda({t}) = {v}")
        if self.increasing_unbounded:
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise ValueError("lambda flagged increasing but decreases on the grid")


def cycle_graph(n: int, edge_length=1.0) -> tuple[tuple[str, ...], tuple]:
    """Nodes "0".."n-1" in a cycle with equal edge lengths."""
    nodes = tuple(str(i) for i in range(n))
    edges = tuple((nodes[i], nodes[(i + 1) % n], float(edge_length)) for i in range(n))
    return nodes, edges


def load_edge_list(text: str) -> tuple[tuple[str, ...], tuple]:
    """Parse an edge list: one "node node length" per line, rational
    lengths allowed, '#' comments ignored."""
    nodes: list[str] = []
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {raw!r}; expected 'node node length'")
        u, v, w = parts
        try:
            length = float(_number(w))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"bad edge length in {raw!r}: {exc}") from exc
        if length <= 0:
            raise ValueError(f"edge length must be positive: {raw!r}")
        for x in (u, v):
            if x not in nodes:
                nodes.append(x)
        edges.append((u, v, length))
    return tuple(nodes), tuple(edges)


def geometric_heights(t_max: float, per_octave: int = 4,
                      extra: Sequence[float] = ()) -> tuple[float, ...]:
    """Apex row plus 2^(i/per_octave) up to (and one step past) t_max."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if per_octave < 1:
        raise ValueError("per_octave must be >= 1")
    hs = {0.0}
    i = 0
    while True:
        t = 2.0 ** (i / per_octave)
        hs.add(t)
        if t >= t_max:
            break
        i += 1
    hs.update(float(t) for t in extra)
    return tuple(sorted(hs))


@dataclass(frozen=True, eq=False)
class ConeGrid:
    """Finite model of a cone: base graph with all-pairs distances plus a
    strictly increasing height grid whose first row (t = 0) is the apex."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    heights: tuple[float, ...]
    base_distance: np.ndarray

    @staticmethod
    def build(nodes: Sequence[str], edges: Sequence[tuple], heights: Sequence[float]) -> "ConeGrid":
        nodes = tuple(nodes)
        heights = tuple(float(t) for t in heights)
        if len(heights) < 2 or heights[0] != 0.0:
            raise ValueError("height grid must start at 0 (the apex row)")
        if not all(map(math.isfinite, heights)):  # NaN would pass the order test
            raise ValueError("heights must be finite")
        if any(b <= a for a, b in zip(heights, heights[1:])):
            raise ValueError("height grid must be strictly increasing")
        if not nodes:  # the apex row alone is no cone, and nothing could index it
            raise ValueError("base graph has no nodes")
        index = {v: i for i, v in enumerate(nodes)}
        if len(index) != len(nodes):
            raise ValueError("duplicate node names")
        norm_edges, pairs = [], set()
        for u, v, w in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u}, {v}) uses an unknown node")
            # csr_matrix would sum a repeated pair, and a loop would stack on a vertical edge
            if u == v or frozenset((u, v)) in pairs:
                raise ValueError(f"edge ({u}, {v}) is a loop or a repeat; the base graph must be simple")
            if not float(w) > 0:  # a negative length sends scipy's Dijkstra into a runaway heap
                raise ValueError(f"edge ({u}, {v}) has length {w}; lengths must be positive")
            pairs.add(frozenset((u, v)))
            norm_edges.append((u, v, float(w)))
        graph = _undirected(len(nodes), _edge_ends(index, norm_edges), [w for *_, w in norm_edges])
        dist = shortest_path(graph, method="D", directed=False)
        if np.isinf(dist).any():
            raise ValueError("base graph is disconnected")
        return ConeGrid(nodes, tuple(norm_edges), heights, dist)

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def height_index(self) -> dict[float, int]:
        return {t: i for i, t in enumerate(self.heights)}

    @cached_property
    def hops(self) -> np.ndarray:
        """[u, v] -> the fewest base edges on a path from node u to node v,
        from an unweighted search."""
        ends = _edge_ends(self.node_index, self.edges)
        graph = _undirected(len(self.nodes), ends, np.ones(ends.shape[1]))
        return shortest_path(graph, directed=False, unweighted=True).astype(np.intp)

    def base_dist(self, u: str, v: str) -> float:
        return float(self.base_distance[self.node_index[u], self.node_index[v]])

    def refine_heights(self) -> "ConeGrid":
        """Double the height-grid density: geometric midpoints between
        positive rows, an arithmetic midpoint below the first row."""
        hs = list(self.heights)
        new = set(hs)
        for a, b in zip(hs, hs[1:]):
            new.add(b / 2 if a == 0.0 else math.sqrt(a * b))
        return ConeGrid(self.nodes, self.edges, tuple(sorted(new)), self.base_distance)

    @cached_property
    def points(self) -> tuple[tuple[str, float], ...]:
        """All grid points: the apex, then each positive height row in
        node order.  This order is the grid's one point numbering."""
        return ((APEX, 0.0), *((v, t) for t in self.heights[1:] for v in self.nodes))

    @cached_property
    def point_index(self) -> dict[tuple[str, float], int]:
        """Each grid point's number in ``points``."""
        return {p: i for i, p in enumerate(self.points)}

    def grid_points(self) -> list[tuple[str, float]]:
        """``points`` as a list."""
        return list(self.points)

    @cached_property
    def point_numbers(self) -> np.ndarray:
        """[row, node] -> index in ``points``; row 0 is the apex."""
        num = np.zeros((len(self.heights), len(self.nodes)), dtype=np.intp)
        num[1:] = np.arange(1, 1 + num[1:].size).reshape(num[1:].shape)
        return num

    def validate(self, p) -> tuple[str, float]:
        """Canonical form of a grid point; ModelMismatch off the grid."""
        if type(p) is tuple and len(p) == 2 and type(p[0]) is str and type(p[1]) is float:
            # the stored point, not p: (APEX, -0.0) finds (APEX, 0.0)
            i = self.point_index.get(p)
            if i is not None:
                return self.points[i]
        node, t = canonical_cone_point(p)
        if t != 0.0:
            if node not in self.node_index:
                raise ModelMismatch(f"unknown base node {node!r}")
            if t not in self.height_index:
                raise ModelMismatch(f"height {t!r} is not on the grid")
        return (node, t)


def canonical_cone_point(p) -> tuple[str, float]:
    if not (isinstance(p, tuple) and len(p) == 2):
        raise ModelMismatch(f"expected a (node, height) pair: {p!r}")
    node, t = p
    t = float(t)
    if t < 0:
        raise ModelMismatch(f"height must be >= 0: {p!r}")
    if t == 0.0:
        return (APEX, 0.0)  # all height-0 points are identified
    return (str(node), t)


def _edge_ends(index: dict[str, int], edges) -> np.ndarray:
    """The node numbers of each edge's ends, one column per edge."""
    return np.array([(index[u], index[v]) for u, v, _ in edges], dtype=np.intp).reshape(-1, 2).T


def _undirected(n: int, ends, weights) -> csr_matrix:
    """Adjacency of the edges ends[0][k] -- ends[1][k], stored both ways."""
    (i, j), w = ends, np.asarray(weights, dtype=float)
    return csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n))


def _fold_runs(acc, counts, table, first, stride=0) -> np.ndarray:
    """``acc`` plus ``table[first + j * stride]`` for j = 0 .. counts - 1,
    entry by entry, one float addition at a time and in that order: the
    left-to-right sum that a Dijkstra search forms along a path."""
    order = np.argsort(counts)[::-1]  # longest runs first: the running entries are a prefix
    acc, first = acc[order], first[order]
    stride = np.broadcast_to(stride, order.shape)[order]
    running = len(order) - np.searchsorted(np.sort(counts), np.arange(counts.max(initial=0)),
                                           side="right")
    for j, n in enumerate(running):
        acc[:n] += table[first[:n] + j * stride[:n]]
    out = np.empty_like(acc)
    out[order] = acc
    return out


@dataclass(frozen=True, eq=False)
class _HeightFold:
    """Full grid distances without a graph search, on a grid whose base
    edges all have one length w.

    A horizontal edge at row h costs ``step[h]`` = lambda(h) * w, so some
    shortest path does all its horizontal travel at one row h: from the
    source row to h, then k base edges (the nodes' hop count; 0 when
    either end is the apex), then to the target row.  With positive
    weights Dijkstra returns the least left-to-right float sum over all
    paths, because fl(a + x) never decreases as a grows.  So folding each
    one-row path in path order and taking the least over h gives
    Dijkstra's bits, wherever no other path can reach below those folds
    (``build`` declines the grids where one might).
    """

    step: np.ndarray   # lambda(t) * w per row, 0 on the apex row
    rise: np.ndarray   # vertical edge lengths, np.diff(heights)
    climb: np.ndarray  # [a, h]: the fold from 0 of the rises from row a to row h, in path order
    hops: np.ndarray   # base hop counts
    margin: float      # a row whose estimate exceeds the least by more is not folded

    @staticmethod
    def build(grid: ConeGrid, lambdas: np.ndarray) -> "_HeightFold | None":
        """The tables, or None unless the fold is sure to give Dijkstra's
        bits.

        Let delta be the least gap between two row steps (the apex's 0
        among them) or twice the least rise.  Take a path that is not a
        folded one-row path.  If it reaches the apex, compare it with the
        apex row's fold; otherwise with the fold at the row of least step
        among those where it moves across.  Each horizontal edge at
        another row, base edge past k or vertical edge past the monotone
        ones makes it longer, in exact arithmetic, by at least delta; with
        none of them it adds the fold's terms in the fold's order.

        A float sum of m positive terms is off its exact value X by at
        most m u / (1 - m u) X, u = 2^-53.  No distance exceeds the apex
        route's 2 * top, and a path longer than 4 * top has a prefix of at
        most ``reach`` = 4 * top + the longest edge that already sums past
        that route; so only sums of at most reach / (shortest edge) terms
        matter, each off by at most ``slack``.  The fold applies when
        delta > 2 * slack.  A flat lambda ties the steps of two rows, and
        with them one-row and two-row paths, so delta is 0 there.
        """
        if len({w for *_, w in grid.edges}) != 1:
            return None
        step = lambdas * grid.edges[0][2]  # the product _graph gives each horizontal edge
        rise = np.diff(grid.heights)
        levels = np.sort(step)
        delta = min(np.diff(levels).min(), 2 * rise.min())
        if not (np.isfinite(levels).all() and delta > 0):
            return None
        reach = 4 * grid.heights[-1] + max(rise.max(), levels[-1])
        # a sum within reach has at most reach / (shortest edge) + 1
        # terms, and an estimate rounds three more times
        bound = (reach / min(rise.min(), levels[1]) + 4) * 2.0 ** -53
        slack = bound / (1 - bound) * reach
        if not (bound < 1 / 3 and delta > 2 * slack):  # 1/3: the prefix above outgrows the apex
            return None
        climb = np.zeros((len(step), len(step)))
        for h in range(1, len(step)):  # rows below h reach h over rise[h - 1] last
            climb[:h, h] = climb[:h, h - 1] + rise[h - 1]
        for h in range(len(step) - 2, -1, -1):  # rows above h reach h over rise[h] last
            climb[h + 1:, h] = climb[h + 1:, h + 1] + rise[h]
        # an estimate and a fold of the same row are each within slack of
        # its exact length, so a row estimated more than 4 * slack above
        # the least estimate folds above that row's fold
        return _HeightFold(step, rise, climb, grid.hops, 4 * slack)

    def __call__(self, src, dst) -> np.ndarray:
        """Distances between the point numbers ``src`` and ``dst``,
        broadcast, in chunks of ``BLOCK_PAIRS`` pairs x rows."""
        shape = np.broadcast_shapes(np.shape(src), np.shape(dst))
        src, dst = np.broadcast_to(src, shape), np.broadcast_to(dst, shape)
        out = np.empty(shape)
        flat = out.reshape(-1)
        chunk = max(1, BLOCK_PAIRS // len(self.step))
        for lo in range(0, flat.size, chunk):
            flat[lo:lo + chunk] = self._pairs(src.flat[lo:lo + chunk], dst.flat[lo:lo + chunk])
        return out

    def _pairs(self, src, dst) -> np.ndarray:
        (rs, ns), (rt, nt) = (np.divmod(p - 1, len(self.hops)) for p in (src, dst))
        rs, rt = rs + 1, rt + 1  # the apex, point 0, falls in row 0
        k = np.where((rs > 0) & (rt > 0), self.hops[ns, nt], 0)
        est = self.climb[rs] + self.climb[rt] + k[:, None] * self.step
        pair, h = np.nonzero(est <= est.min(axis=1, keepdims=True) + self.margin)
        acc = _fold_runs(self.climb[rs[pair], h], k[pair], self.step, h)
        to = rt[pair] - h
        acc = _fold_runs(acc, np.abs(to), self.rise, np.where(to > 0, h, h - 1), np.sign(to))
        return np.minimum.reduceat(acc, np.flatnonzero(np.diff(pair, prepend=-1)))


@dataclass(frozen=True, eq=False)
class ConeSpace(Space):
    """Space handle over a cone grid; distance is the shortest-path
    metric of the weighted grid graph (an upper bound for the cone
    metric, exact as a metric on grid points).

    Full distances fold one-height paths (``_fold``) on uniform-edge
    grids with distinct row steps; threshold searches, and full
    distances on other grids, read Dijkstra rows (``_row_blocks``).  Both
    give the same float bits."""

    grid: ConeGrid
    lam: LambdaFunction
    cap: int = DEFAULT_CAP

    model = "cone"
    integer_metric = False

    def __post_init__(self):
        self.lam.validate_on_grid(self.grid.heights)

    @property
    def basepoint(self) -> tuple[str, float]:
        return (APEX, 0.0)

    def validate(self, p):
        return self.grid.validate(p)

    @cached_property
    def _lambdas(self) -> np.ndarray:
        return np.array([self.lam(t) for t in self.grid.heights])

    @cached_property
    def _graph(self) -> csr_matrix:
        """Grid graph over the ``points`` numbering: vertical edges
        cost the height change, horizontal ones lambda(t) * w.  A cell
        diagonal would cost dt + max lambda * w, while going vertical and
        then across at the lower-lambda row costs dt + min lambda * w, so
        no shortest path needs one and the graph carries none."""
        grid, num = self.grid, self.grid.point_numbers
        dt = np.diff(grid.heights)[:, None]
        u, v = _edge_ends(grid.node_index, grid.edges)
        w = np.array([e[2] for e in grid.edges])
        vertical = (num[:-1], num[1:], np.broadcast_to(dt, num[1:].shape))  # apex row included
        horizontal = (num[1:, u], num[1:, v], self._lambdas[1:, None] * w)
        i, j, lengths = (np.r_[a.ravel(), b.ravel()] for a, b in zip(vertical, horizontal))
        return _undirected(len(grid.points), (i, j), lengths)

    @cached_property
    def _fold(self) -> "_HeightFold | None":
        """The one-height fold's tables, or None where the fold may not
        give Dijkstra's bits (see ``_HeightFold.build``)."""
        return _HeightFold.build(self.grid, self._lambdas)

    def _indices(self, ps) -> np.ndarray:
        index = self.grid.point_index
        return np.array([index[self.validate(p)] for p in ps], dtype=np.intp)

    def _row_blocks(self, sources, limit=math.inf):
        """``(offset, rows)`` for each ``_PAIRED_ROWS`` of the point numbers
        ``sources``: ``rows[k]`` holds the Dijkstra distances from
        ``sources[offset + k]``.  Each search stops at ``limit``: every
        edge weight is positive, so the distances up to it (equal
        included) are the ones a full search gives, bit for bit, and
        the rest read inf."""
        limit = max(limit, 0.0)  # scipy refuses a negative limit
        for lo in range(0, len(sources), _PAIRED_ROWS):
            yield lo, dijkstra(self._graph, indices=sources[lo:lo + _PAIRED_ROWS], limit=limit)

    def distance(self, p, q) -> float:
        return float(self._distances_at([p, q])([0], [1])[0])

    def _distances_at(self, ps, limit=math.inf):
        idx = self._indices(ps)
        fold = self._fold if limit == math.inf else None
        if fold is not None:
            return lambda i, j: fold(idx[i], idx[j])

        def dist(i, j):
            src, dst = idx[i], idx[j]
            shape = np.broadcast_shapes(src.shape, dst.shape)
            src, dst = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (src, dst))
            uniq, row_of = np.unique(src, return_inverse=True)
            row_of = row_of.reshape(src.shape)  # its shape differs between NumPy versions
            # source positions by block: a block's entries spread from them
            # along the axes where src is 1 wide, and dst is indexed only
            # where it varies, so no block broadcasts either to the full shape
            order = np.argsort(row_of, axis=None)
            blocks = np.split(order, np.cumsum(np.bincount(row_of.ravel() // _PAIRED_ROWS))[:-1])
            out = np.empty(shape)
            for (lo, rows), block in zip(self._row_blocks(uniq, limit), blocks):
                at = np.unravel_index(block, src.shape)
                at = tuple(slice(None) if n == 1 else a for a, n in zip(at, src.shape))
                cols = dst[tuple(a if n > 1 or isinstance(a, slice) else [0]
                                 for a, n in zip(at, dst.shape))]
                out[at] = np.take(rows, (row_of[at] - lo) * rows.shape[1] + cols)
            return out

        return dist

    def closed_ball(self, center, r) -> list:
        _check_radius(r)
        (_, rows), = self._row_blocks(self._indices([center]), limit=r)
        hits = np.nonzero(rows[0] <= r)[0]
        self._check_cap(len(hits))
        return [self.grid.points[i] for i in hits]

    def format_point(self, p) -> str:
        node, t = canonical_cone_point(p)
        return "apex" if t == 0.0 else f"{node}@{t!r}"


# ---------------------------------------------------------------------------
# lengths, distances, diagnostics


def lambda_length(grid: ConeGrid, lam: LambdaFunction, path: Sequence) -> float:
    """Length of an explicit point sequence: each step pays the height
    change plus the base distance weighted by the larger endpoint
    lambda.  Steps touching the apex carry no angular term (the base
    coordinate is collapsed there)."""
    if len(path) < 2:
        raise ValueError("a path needs at least 2 points")
    pts = [grid.validate(p) for p in path]
    total = 0.0
    for (u, s), (v, t) in zip(pts, pts[1:]):
        total += abs(s - t)
        if s != 0.0 and t != 0.0:
            total += max(lam(s), lam(t)) * grid.base_dist(u, v)
    return total


def cone_distance_lower(p, q) -> float:
    """Trivial bracket partner: any path moves at least the height gap."""
    return abs(canonical_cone_point(p)[1] - canonical_cone_point(q)[1])


@dataclass(frozen=True)
class DiagnosticRow:
    height: float
    measured_separation: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class DiagnosticTable:
    rows: tuple[DiagnosticRow, ...]

    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_csv(self) -> str:
        return rows_to_csv(
            [(row.height, row.measured_separation, row.bound, str(row.passed).lower())
             for row in self.rows],
            header=("t", "measured_sep", "bound", "pass"),
        )


def _check_slack(slack: float):
    # a negative or NaN slack fails every row, a zero separation included
    if not (math.isfinite(slack) and slack >= 0):
        raise ValueError(f"slack must be finite and >= 0, not {slack}")


def _above(grid: ConeGrid, t: float) -> np.ndarray:
    """The numbers of the grid points at heights >= t, a tail of the
    ``points`` numbering; none above the top row."""
    num = grid.point_numbers
    row = int(np.searchsorted(grid.heights, t))
    end = num[-1, -1] + 1
    return np.arange(num[row, 0] if row < len(num) else end, end)


def compactification_diagnostic(
    grid: ConeGrid,
    lam: LambdaFunction,
    entourage_radius: float,
    heights: Sequence[float],
    slack: float = 0.1,
    cap: int = DEFAULT_CAP,
) -> DiagnosticTable:
    """Measure, per threshold height t, the largest base separation among
    grid pairs above t lying within the entourage, against r_E / lambda(t).

    This is the quantitative shadow of "controlled sets meet the boundary
    only at the diagonal": with lambda increasing and unbounded, pairs of
    bounded cone distance must have base separation shrinking like
    1 / lambda.  The slack absorbs grid discretization.  The points
    above each threshold are enumerated under ``cap``.
    """
    if not lam.increasing_unbounded:
        raise ValueError(
            "diagnostic requires a lambda flagged increasing-unbounded; "
            "the criterion's hypothesis fails otherwise"
        )
    _check_radius(entourage_radius, "entourage radius")
    _check_slack(slack)
    thresholds = sorted(float(t) for t in heights)
    if not all(map(math.isfinite, thresholds)):  # NaN would pass the range tests
        raise ValueError("threshold heights must be finite")
    space = ConeSpace(grid, lam, cap=cap)
    rows = []
    for t in thresholds:
        if t <= 0:
            raise ValueError("threshold heights must be positive (t = 0 is the apex)")
        if t > grid.heights[-1]:
            raise ValueError(f"threshold {t} is beyond the grid top {grid.heights[-1]}")
        above = _above(grid, t)
        space._check_cap(len(above), "diagnostic enumeration")
        first = above[0]
        nodes = (above - 1) % len(grid.nodes)
        measured = 0.0
        for lo, block in space._row_blocks(above, limit=entourage_radius):
            a, b = np.nonzero(np.isfinite(block[:, first:]))
            sep = grid.base_distance[nodes[lo + a], nodes[b]].max(initial=0.0)
            measured = max(measured, float(sep))
        bound = entourage_radius / lam(t)
        rows.append(DiagnosticRow(t, measured, bound, measured <= bound * (1.0 + slack)))
    return DiagnosticTable(tuple(rows))
