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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

from .coarse import rows_to_csv
from .spaces import DEFAULT_CAP, ModelMismatch, Space, _check_radius

APEX = "*"

# sources per Dijkstra call of ConeSpace._row_blocks, the one search
# every cone distance reads: bounds the rows held in memory at once
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
        length = float(Fraction(w))
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
        if any(b <= a for a, b in zip(heights, heights[1:])):
            raise ValueError("height grid must be strictly increasing")
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
        ends = np.array([(index[u], index[v]) for u, v, _ in norm_edges], dtype=np.intp)
        graph = _undirected(len(nodes), ends.reshape(-1, 2).T, [w for _, _, w in norm_edges])
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

    def grid_points(self) -> list[tuple[str, float]]:
        """All grid points: the apex, then each positive height row in
        node order.  This order is the grid's one point numbering."""
        pts: list[tuple[str, float]] = [(APEX, 0.0)]
        for t in self.heights[1:]:
            pts.extend((v, t) for v in self.nodes)
        return pts

    @cached_property
    def point_numbers(self) -> np.ndarray:
        """[row, node] -> index in ``grid_points()``; row 0 is the apex."""
        num = np.zeros((len(self.heights), len(self.nodes)), dtype=np.intp)
        num[1:] = np.arange(1, 1 + num[1:].size).reshape(num[1:].shape)
        return num

    def validate(self, p) -> tuple[str, float]:
        """Canonical form of a grid point; ModelMismatch off the grid."""
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


def _undirected(n: int, ends, weights) -> csr_matrix:
    """Adjacency of the edges ends[0][k] -- ends[1][k], stored both ways."""
    (i, j), w = ends, np.asarray(weights, dtype=float)
    return csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n))


@dataclass(frozen=True, eq=False)
class ConeSpace(Space):
    """Space handle over a cone grid; distance is the shortest-path
    metric of the weighted grid graph (an upper bound for the cone
    metric, exact as a metric on grid points)."""

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
    def _points(self) -> list[tuple[str, float]]:
        return self.grid.grid_points()

    @cached_property
    def _point_index(self) -> dict[tuple[str, float], int]:
        return {p: i for i, p in enumerate(self._points)}

    @cached_property
    def _graph(self) -> csr_matrix:
        """Grid graph over the ``grid_points`` numbering: vertical edges
        cost the height change, horizontal ones lambda(t) * w.  A cell
        diagonal would cost dt + max lambda * w, while going vertical and
        then across at the lower-lambda row costs dt + min lambda * w, so
        no shortest path needs one and the graph carries none."""
        grid, num = self.grid, self.grid.point_numbers
        lam = np.array([self.lam(t) for t in grid.heights])
        dt = np.diff(grid.heights)[:, None]
        u, v = np.array([(grid.node_index[a], grid.node_index[b]) for a, b, _ in grid.edges],
                        dtype=np.intp).reshape(-1, 2).T
        w = np.array([e[2] for e in grid.edges])
        vertical = (num[:-1], num[1:], np.broadcast_to(dt, num[1:].shape))  # apex row included
        horizontal = (num[1:, u], num[1:, v], lam[1:, None] * w)
        i, j, lengths = (np.r_[a.ravel(), b.ravel()] for a, b in zip(vertical, horizontal))
        return _undirected(len(self._points), (i, j), lengths)

    def _indices(self, ps) -> np.ndarray:
        return np.array([self._point_index[self.validate(p)] for p in ps], dtype=np.intp)

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
        return [self._points[i] for i in hits]

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


def cone_distance_upper(grid: ConeGrid, lam: LambdaFunction, p, q) -> float:
    """Shortest grid-path length: an upper bound for the cone distance,
    non-increasing under height-grid refinement."""
    return ConeSpace(grid, lam).distance(p, q)


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
    entourage_radius: float
    slack: float
    rows: tuple[DiagnosticRow, ...]

    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_csv(self) -> str:
        return rows_to_csv(
            [(row.height, row.measured_separation, row.bound, str(row.passed).lower())
             for row in self.rows],
            header=("t", "measured_sep", "bound", "pass"),
        )


def compactification_diagnostic(
    grid: ConeGrid,
    lam: LambdaFunction,
    entourage_radius: float,
    heights: Sequence[float],
    slack: float = 0.1,
) -> DiagnosticTable:
    """Measure, per threshold height t, the largest base separation among
    grid pairs above t lying within the entourage, against r_E / lambda(t).

    This is the quantitative shadow of "controlled sets meet the boundary
    only at the diagonal": with lambda increasing and unbounded, pairs of
    bounded cone distance must have base separation shrinking like
    1 / lambda.  The slack absorbs grid discretization.
    """
    if not lam.increasing_unbounded:
        raise ValueError(
            "diagnostic requires a lambda flagged increasing-unbounded; "
            "the criterion's hypothesis fails otherwise"
        )
    if entourage_radius < 0:
        raise ValueError("entourage radius must be >= 0")
    space = ConeSpace(grid, lam)
    rows = []
    for t in sorted(float(t) for t in heights):
        if t <= 0:
            raise ValueError("threshold heights must be positive (t = 0 is the apex)")
        if t > grid.heights[-1]:
            raise ValueError(f"threshold {t} is beyond the grid top {grid.heights[-1]}")
        # the points at heights >= t are a tail of the grid_points numbering
        first = grid.point_numbers[np.searchsorted(grid.heights, t), 0]
        above = np.arange(first, len(space._points))
        nodes = (above - 1) % len(grid.nodes)
        measured = 0.0
        for lo, block in space._row_blocks(above, limit=entourage_radius):
            a, b = np.nonzero(np.isfinite(block[:, first:]))
            sep = grid.base_distance[nodes[lo + a], nodes[b]].max(initial=0.0)
            measured = max(measured, float(sep))
        bound = entourage_radius / lam(t)
        rows.append(DiagnosticRow(t, measured, bound, measured <= bound * (1.0 + slack)))
    return DiagnosticTable(float(entourage_radius), slack, tuple(rows))


_LAMBDAS = {"linear": LambdaFunction.linear, "sqrt": LambdaFunction.sqrt}


def cone_space_from_config(cfg: dict, cap: int = DEFAULT_CAP) -> ConeSpace:
    """Build a cone handle from flat config keys.

    Base graph: either ``base_cycle = n`` (with optional ``edge_length``)
    or ``base_edges`` holding edge-list text / a file path.  Heights:
    geometric up to ``height_max`` (``heights_per_octave`` rows per
    octave) plus any ``extra_heights``.  ``lam`` picks linear or sqrt.
    """
    if "base_cycle" in cfg:
        n = int(cfg["base_cycle"])
        nodes, edges = cycle_graph(n, float(Fraction(str(cfg.get("edge_length", 1)))))
    elif "base_edges" in cfg:
        text = str(cfg["base_edges"])
        if "\n" not in text and text.endswith((".edges", ".txt")):
            try:
                with open(text) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read base_edges {text!r}: {exc.strerror}") from exc
        nodes, edges = load_edge_list(text)
    else:
        raise ValueError("cone space needs 'base_cycle' or 'base_edges'")
    t_max = float(cfg.get("height_max", 64))
    per_octave = int(cfg.get("heights_per_octave", 4))
    extra = []
    if "extra_heights" in cfg:
        extra = [float(Fraction(s.strip())) for s in str(cfg["extra_heights"]).split(",")]
    heights = geometric_heights(t_max, per_octave, extra)
    lam_name = str(cfg.get("lam", "linear")).lower()
    if lam_name not in _LAMBDAS:
        raise ValueError(f"unknown lambda choice {lam_name!r}")
    grid = ConeGrid.build(nodes, edges, heights)
    return ConeSpace(grid, _LAMBDAS[lam_name](), cap=cap)
