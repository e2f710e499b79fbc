import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.cone import (
    _PAIRED_ROWS,
    APEX,
    ConeGrid,
    ConeSpace,
    LambdaFunction,
    compactification_diagnostic,
    cone_distance_lower,
    cycle_graph,
    geometric_heights,
    lambda_length,
    load_edge_list,
)
from coarselab.coarse import bornologous_profile
from coarselab.spaces import CapExceeded, ModelMismatch


def two_point_grid(heights=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0)):
    return ConeGrid.build(("x", "y"), (("x", "y", 1.0),), heights)


LINEAR = LambdaFunction.linear()


# ---------------------------------------------------------------------------
# building blocks


def test_lambda_validation():
    LINEAR.validate_on_grid([0.0, 1.0, 2.0])
    broken = LambdaFunction("broken", lambda t: 0.0, increasing_unbounded=False)
    with pytest.raises(ValueError, match="iff"):
        broken.validate_on_grid([0.0, 1.0])
    shrink = LambdaFunction("shrink", lambda t: 1.0 / (1 + t) if t else 0.0,
                            increasing_unbounded=True)
    with pytest.raises(ValueError, match="increasing"):
        shrink.validate_on_grid([0.0, 1.0, 2.0])


def test_lambda_table_interpolation():
    lam = LambdaFunction.from_table([(0, 0), (2, 1), (4, 4)])
    assert lam(0) == 0
    assert lam(1) == 0.5
    assert lam(3) == 2.5


def test_load_edge_list():
    nodes, edges = load_edge_list("a b 1\nb c 3/2  # comment\n\n# whole line\n")
    assert nodes == ("a", "b", "c")
    assert edges[1] == ("b", "c", 1.5)
    with pytest.raises(ValueError, match="expected"):
        load_edge_list("a b")
    with pytest.raises(ValueError, match="positive"):
        load_edge_list("a b 0")
    # a zero denominator is a bad length, not a ZeroDivisionError
    with pytest.raises(ValueError, match=r"bad edge length in 'a b 1/0': Fraction\(1, 0\)"):
        load_edge_list("a b 1/0")


def test_grid_validation():
    with pytest.raises(ValueError, match="apex row"):
        ConeGrid.build(("x",), (), (1.0, 2.0))
    with pytest.raises(ValueError, match="no nodes"):
        ConeGrid.build((), (), (0.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        ConeGrid.build(("x",), (), (0.0, 2.0, 2.0))
    # NaN passes an order test, and both read inf between connected points
    for heights in ((0.0, 1.0, math.nan, 2.0), (0.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="heights must be finite"):
            ConeGrid.build(("x", "y"), (("x", "y", 1.0),), heights)
    with pytest.raises(ValueError, match="disconnected"):
        ConeGrid.build(("x", "y"), (), (0.0, 1.0))
    with pytest.raises(ValueError, match="unknown node"):
        ConeGrid.build(("x",), (("x", "z", 1.0),), (0.0, 1.0))
    # csr_matrix would sum a repeated pair into one longer edge, and a
    # loop would lengthen the vertical edge it lands on
    triangle = (("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0))
    for bad in (triangle + (("y", "x", 3.0),), triangle + (("x", "x", 1.0),)):
        with pytest.raises(ValueError, match="must be simple"):
            ConeGrid.build(("x", "y", "z"), bad, (0.0, 1.0))
    for n in (1, 2):
        with pytest.raises(ValueError, match="must be simple"):
            ConeGrid.build(*cycle_graph(n), (0.0, 1.0))
    # a negative length takes the same branch; it is not built here, because
    # without the check scipy's Dijkstra would exhaust memory on it
    for length in (0.0, math.nan):
        with pytest.raises(ValueError, match="must be positive"):
            ConeGrid.build(*cycle_graph(4, length), (0.0, 1.0))


def test_geometric_heights():
    hs = geometric_heights(8, per_octave=2, extra=[5.0])
    assert hs[0] == 0.0
    assert 5.0 in hs
    assert hs[-1] >= 8
    assert all(b > a for a, b in zip(hs, hs[1:]))
    # no rows per octave would divide by zero, and fewer would never end
    for per_octave in (0, -1):
        with pytest.raises(ValueError, match="per_octave must be >= 1"):
            geometric_heights(8, per_octave=per_octave)


# ---------------------------------------------------------------------------
# lambda-length of explicit point sequences


def test_lambda_length_vertical():
    grid = two_point_grid()
    assert lambda_length(grid, LINEAR, [("x", 2.0), ("x", 5.0)]) == 3.0


def test_lambda_length_constant_height():
    grid = two_point_grid()
    assert lambda_length(grid, LINEAR, [("x", 3.0), ("y", 3.0)]) == 3.0


def test_lambda_length_through_apex():
    grid = two_point_grid()
    val = lambda_length(grid, LINEAR, [("x", 4.0), ("whatever", 0.0), ("y", 3.0)])
    assert val == 7.0


def test_lambda_length_refinement_never_shrinks():
    grid = two_point_grid()
    # vertical: subdivision leaves the value unchanged
    coarse = lambda_length(grid, LINEAR, [("x", 1.0), ("x", 5.0)])
    fine = lambda_length(grid, LINEAR, [("x", 1.0), ("x", 3.0), ("x", 5.0)])
    assert fine == coarse
    # constant height through an off-geodesic point can only grow
    tri = ConeGrid.build(
        ("u", "v", "w"),
        (("u", "v", 1.0), ("v", "w", 1.0), ("u", "w", 1.0)),
        (0.0, 1.0, 2.0),
    )
    direct = lambda_length(tri, LINEAR, [("u", 2.0), ("w", 2.0)])
    through = lambda_length(tri, LINEAR, [("u", 2.0), ("v", 2.0), ("w", 2.0)])
    assert through >= direct


def test_lambda_length_errors():
    grid = two_point_grid()
    with pytest.raises(ValueError, match="at least 2"):
        lambda_length(grid, LINEAR, [("x", 1.0)])
    with pytest.raises(ModelMismatch):
        lambda_length(grid, LINEAR, [("x", 1.0), ("x", 1.5)])
    with pytest.raises(ModelMismatch):
        lambda_length(grid, LINEAR, [("q", 1.0), ("x", 2.0)])


# ---------------------------------------------------------------------------
# grid distances


def test_upper_distance_examples():
    grid = two_point_grid()
    assert ConeSpace(grid, LINEAR).distance(("x", 4.0), ("x", 4.0)) == 0.0
    assert ConeSpace(grid, LINEAR).distance(("x", 5.0), ("x", 9.0)) == 4.0
    assert ConeSpace(grid, LINEAR).distance(("x", 4.0), ("y", 4.0)) == 4.0


def test_apex_identification():
    sp = ConeSpace(two_point_grid(), LINEAR)
    assert sp.distance(("x", 0.0), ("y", 0.0)) == 0.0
    assert sp.validate(("x", 0)) == (APEX, 0.0)
    assert sp.distance(("x", 0.0), ("y", 2.0)) == 2.0


def test_lower_bound_examples():
    assert cone_distance_lower(("x", 3.0), ("y", 10.0)) == 7.0
    assert cone_distance_lower(("x", 3.0), ("x", 3.0)) == 0.0
    assert cone_distance_lower(("x", 3.0), ("y", 3.0)) == 0.0


def test_grid_metric_axioms():
    nodes, edges = cycle_graph(8)
    grid = ConeGrid.build(nodes, edges, geometric_heights(8))
    sp = ConeSpace(grid, LINEAR)
    pts = sp.grid.grid_points()
    dmat = sp.pairwise(pts, pts)
    assert np.allclose(dmat, dmat.T)
    assert (np.diag(dmat) == 0).all()
    assert (dmat[0, 1:] > 0).all()
    rng = random.Random(0)
    for _ in range(10_000):
        i, j, k = (rng.randrange(len(pts)) for _ in range(3))
        assert dmat[i, k] <= dmat[i, j] + dmat[j, k] + 1e-9


def test_bracket_lower_below_upper():
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges, geometric_heights(16))
    sp = ConeSpace(grid, LINEAR)
    pts = grid.grid_points()
    rng = random.Random(1)
    for _ in range(300):
        p, q = pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))]
        assert cone_distance_lower(p, q) <= sp.distance(p, q) + 1e-12


def test_refinement_is_monotone():
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges, geometric_heights(16))
    fine = grid.refine_heights()
    assert set(grid.heights) <= set(fine.heights)
    assert len(fine.heights) == 2 * len(grid.heights) - 1
    sp, spf = ConeSpace(grid, LINEAR), ConeSpace(fine, LINEAR)
    pts = grid.grid_points()
    rng = random.Random(2)
    pairs = [(pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))])
             for _ in range(200)]
    du = sp.paired([p for p, _ in pairs], [q for _, q in pairs])
    df = spf.paired([p for p, _ in pairs], [q for _, q in pairs])
    assert (df <= du + 1e-9).all()


def test_cone_ball_and_cap():
    sp = ConeSpace(two_point_grid(), LINEAR)
    ball = sp.closed_ball((APEX, 0.0), 2.0)
    assert set(ball) == {(APEX, 0.0), ("x", 1.0), ("y", 1.0), ("x", 2.0), ("y", 2.0)}
    small = ConeSpace(two_point_grid(), LINEAR, cap=3)
    with pytest.raises(CapExceeded):
        small.closed_ball((APEX, 0.0), 5.0)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="radius must be finite"):
            sp.closed_ball((APEX, 0.0), r)


def test_validate_errors():
    sp = ConeSpace(two_point_grid(), LINEAR)
    with pytest.raises(ModelMismatch):
        sp.validate(("x", 1.7))
    with pytest.raises(ModelMismatch):
        sp.validate(("nope", 1.0))
    with pytest.raises(ModelMismatch):
        sp.validate(("x", -1.0))


def _validate_outcome(grid, p):
    """What ``grid.validate(p)`` returns, with each part's type and the
    height's sign bit, or the class and message of what it raises."""
    try:
        node, t = grid.validate(p)
    except Exception as exc:
        return type(exc), str(exc)
    return node, type(node), t, type(t), math.copysign(1.0, t)


def test_grid_point_lookup_matches_slow_path():
    grid = two_point_grid()
    slow = two_point_grid()
    slow.__dict__["point_index"] = {}  # every point takes canonical_cone_point's path
    points = grid.grid_points() + [
        ("x", 2), ("y", np.float64(9.0)), ("x", np.int64(3)), ("x", True),
        (APEX, -0.0), ("x", 0.0), ("x", -0.0), ("y", 0), (np.str_("x"), 1.0),
        ("nope", 1.0), ("x", 1.7), ("x", -1.0), ("x", math.nan), ("x", math.inf),
        ["x", 1.0], ("x", 1.0, 0.0), ("x",), "x", None, (1, 1.0),
    ]
    for p in points:
        assert _validate_outcome(grid, p) == _validate_outcome(slow, p), p
    assert math.copysign(1.0, grid.validate((APEX, -0.0))[1]) == 1.0


def test_pairwise_matches_scalar():
    nodes, edges = cycle_graph(5)
    grid = ConeGrid.build(nodes, edges, (0.0, 1.0, 2.0, 4.0))
    sp = ConeSpace(grid, LINEAR)
    pts = grid.grid_points()
    mat = sp.pairwise(pts, pts)
    rng = random.Random(3)
    for _ in range(100):
        i, j = rng.randrange(len(pts)), rng.randrange(len(pts))
        assert mat[i, j] == sp.distance(pts[i], pts[j])


def test_distance_paths_agree_past_one_paired_batch():
    # 401 distinct sources: a kernel call that asks for all of them needs
    # four Dijkstra calls of <= _PAIRED_ROWS rows
    grid = ConeGrid.build(*cycle_graph(16), geometric_heights(64))
    sp = ConeSpace(grid, LINEAR)
    pts = grid.grid_points()
    assert len(pts) > 3 * _PAIRED_ROWS
    rng = random.Random(4)
    ps = rng.sample(pts, len(pts))
    qs = [rng.choice(pts) for _ in ps]
    paired = sp.paired(ps, qs)
    assert (paired == np.diag(sp.pairwise(ps, qs))).all()
    assert paired.tolist() == [sp.distance(p, q) for p, q in zip(ps, qs)]
    # one column: pairwise asks the kernel for every row in one call
    assert sp.pairwise(ps, qs[:1])[:, 0].tolist() == [sp.distance(p, qs[0]) for p in ps]
    rows = sp.pairwise(pts, pts)
    dist = sp._distances_at(pts)
    assert (dist(np.arange(len(pts))[:, None], np.arange(5)) == rows[:, :5]).all()
    for c in rng.sample(range(len(pts)), 20):
        r = rng.uniform(0, 40)
        assert sp.closed_ball(pts[c], r) == [q for q, d in zip(pts, rows[c]) if d <= r]


def test_kernel_gathers_any_broadcast_across_blocks():
    # sources along one, two non-adjacent or a trailing axis, targets
    # spread along the same or other axes, repeats: every entry is the
    # full table's, however the request splits into Dijkstra blocks
    _check_broadcast_gathers(ConeSpace(ConeGrid.build(*cycle_graph(16), geometric_heights(64)), LINEAR))


def test_search_kernel_gathers_any_broadcast_across_blocks():
    # one longer edge turns the fold down, so full distances take the
    # Dijkstra blocks too
    sp = ConeSpace(ConeGrid.build(*_cycle_with_a_long_edge(16), geometric_heights(64)), LINEAR)
    assert sp._fold is None
    _check_broadcast_gathers(sp)


def _cycle_with_a_long_edge(n):
    """An n-cycle of unit edges but one of length 1.5."""
    nodes, edges = cycle_graph(n)
    return nodes, edges[:-1] + (edges[-1][:2] + (1.5,),)


def _check_broadcast_gathers(sp):
    pts = sp.grid.grid_points()
    full = sp.pairwise(pts, pts)
    dist = sp._distances_at(pts)
    rng = np.random.default_rng(5)
    n = len(pts)
    shapes = [((n, 1), (7,)), ((n,), (n,)), ((20, 1, 15), (1, 6, 1)), ((1, 300), (4, 1)),
              ((n, 1), (n, 3)), ((3, 1), (3, 4)), ((1,), (9,)), ((0, 1), (5,))]
    for si, sj in shapes:
        i, j = rng.integers(0, n, si), rng.integers(0, n, sj)
        assert (dist(i, j) == full[i, j]).all()
    h = n // 2
    assert (dist(slice(0, h), slice(h, 2 * h)) == full[np.arange(h), h + np.arange(h)]).all()
    limited = sp._distances_at(pts, limit=3.0)(np.arange(n)[:, None], slice(0, n))
    assert (limited[full <= 3.0] == full[full <= 3.0]).all()
    assert np.isinf(limited[full > 3.0]).all()


def test_profile_memory_grows_with_the_block_not_the_table():
    # the whole grid is the sample, so n x N is the grid size squared: a
    # profile that held its distance tables would grow 4x from the
    # 120-cycle to the 240-cycle base, one that holds blocks of rows 2x
    heights = geometric_heights(16, 1)

    def peak(n):
        sp = ConeSpace(ConeGrid.build(*cycle_graph(n), heights), LINEAR)
        sp._graph, sp.grid.point_index  # built once per space, outside the profile

        def rotate(p):
            node, t = p
            return p if t == 0 else (str((int(node) + 1) % n), t)

        tracemalloc.start()
        try:
            bornologous_profile(rotate, sp, sp, [0.5, 1], 16)
            return tracemalloc.get_traced_memory()[1], len(sp.grid.points)
        finally:
            tracemalloc.stop()

    (small, _), (big, size) = peak(120), peak(240)
    assert big < 3 * small
    assert big < size * size * 8 / 2  # half of one float64 table


def _chorded_hexagon_space(lam: LambdaFunction) -> ConeSpace:
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges + (("0", "3", 2.5),), geometric_heights(8, extra=[3.0]))
    return ConeSpace(grid, lam)


_THRESHOLD_SPACES = {
    lam.tag: _chorded_hexagon_space(lam)
    for lam in (LINEAR, LambdaFunction.sqrt(),
                LambdaFunction.from_table([(0, 0), (1, 0.5), (3, 4), (10, 5)]))
}


def _boundary_radius(data, distances: np.ndarray) -> float:
    """A realised distance, or the float just below or just above it."""
    d = float(data.draw(st.sampled_from(distances.ravel())))
    return float(data.draw(st.sampled_from(
        [np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)])))


@pytest.mark.parametrize("tag", list(_THRESHOLD_SPACES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_threshold_searches_match_full_distances(tag, data):
    # _near and closed_ball stop Dijkstra at the radius, so test radii
    # on that boundary
    sp = _THRESHOLD_SPACES[tag]
    pts = sp.grid.grid_points()
    points = st.lists(st.sampled_from(pts), min_size=1, max_size=6)
    ps, qs = data.draw(points), data.draw(points)
    full = sp.pairwise(ps, qs)
    r = _boundary_radius(data, full)  # may be just below 0
    assert (sp._near(ps, qs, r) == (full < r)).all()
    c = data.draw(st.sampled_from(pts))
    row = sp.pairwise([c], pts)[0]
    r = max(_boundary_radius(data, row), 0.0)
    assert sp.closed_ball(c, r) == [q for q, d in zip(pts, row) if d <= r]


# ---------------------------------------------------------------------------
# full distances by the one-height fold, against Dijkstra rows

CYCLE16_EDGES = Path(__file__).resolve().parent.parent / "configs" / "cycle16.edges"


def _dijkstra_table(sp: ConeSpace) -> np.ndarray:
    """All grid distances read off full ``_row_blocks`` rows: the oracle."""
    return np.vstack([rows for _, rows in sp._row_blocks(np.arange(len(sp.grid.points)))])


@st.composite
def _fold_spaces(draw):
    """A cone space whose base edges share one length, with its lambda's
    kind: linear, sqrt, a non-monotone table of distinct values, or a
    table that is flat over the rows at or above height 1."""
    if draw(st.booleans()):
        base = cycle_graph(draw(st.integers(3, 40)), draw(st.sampled_from([1, 0.7, 1 / 3, 0.1, 2.5])))
    else:
        base = load_edge_list(CYCLE16_EDGES.read_text())
    extra = draw(st.lists(st.sampled_from([0.5, 1.5, 2.0, 3.0, 5.0, 6.0, 10.0, 12.0]), max_size=4))
    heights = geometric_heights(draw(st.sampled_from([2, 8, 16])), draw(st.integers(1, 4)), extra)
    kind = draw(st.sampled_from(["linear", "sqrt", "table", "flat"]))
    if kind == "table":
        values = draw(st.permutations([0.25 * (i + 1) for i in range(len(heights) - 1)]))
        lam = LambdaFunction.from_table([(0, 0), *zip(heights[1:], values)])
    elif kind == "flat":
        lam = LambdaFunction.from_table([(0, 0), (1, 1), (heights[-1], 1)])
    else:
        lam = {"linear": LINEAR, "sqrt": LambdaFunction.sqrt()}[kind]
    return ConeSpace(ConeGrid.build(*base, heights), lam), kind


@given(case=_fold_spaces(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_fold_matches_dijkstra_rows_bit_for_bit(case, data):
    # Dijkstra's float sums are what criterion 10 digests, so equal
    # within a tolerance is not enough; a flat lambda ties one-row paths
    # with paths across two rows and must take the search
    sp, kind = case
    assert (sp._fold is None) == (kind == "flat")
    oracle = _dijkstra_table(sp)
    pts = sp.grid.points
    assert np.array_equal(sp.pairwise(pts, pts), oracle)
    n = len(pts)
    i = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=50)))
    j = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(i), max_size=len(i))))
    ps, qs = [pts[a] for a in i], [pts[b] for b in j]
    assert np.array_equal(sp.paired(ps, qs), oracle[i, j])
    assert [sp.distance(p, q) for p, q in zip(ps[:5], qs[:5])] == oracle[i[:5], j[:5]].tolist()


@pytest.mark.parametrize("n, w, top, per_octave", [(6, 1, 16, 4), (12, 1 / 3, 8, 2)])
def test_fold_matches_dijkstra_rows_where_rows_nearly_tie(n, w, top, per_octave):
    # linear lambda on geometric heights puts one-row paths at different
    # rows within rounding of each other, so the fold's pruning margin
    # must keep every row that can win
    sp = ConeSpace(ConeGrid.build(*cycle_graph(n, w), geometric_heights(top, per_octave)), LINEAR)
    assert sp._fold is not None
    assert np.array_equal(sp.pairwise(sp.grid.points, sp.grid.points), _dijkstra_table(sp))


def test_fold_declines_mixed_edge_lengths():
    for lam in (LINEAR, LambdaFunction.sqrt()):
        sp = _chorded_hexagon_space(lam)
        assert sp._fold is None
        assert np.array_equal(sp.pairwise(sp.grid.points, sp.grid.points), _dijkstra_table(sp))
    grid = ConeGrid.build(*_cycle_with_a_long_edge(6), geometric_heights(8))
    assert ConeSpace(grid, LINEAR)._fold is None
    assert ConeSpace(ConeGrid.build(*cycle_graph(6), geometric_heights(8)), LINEAR)._fold is not None


def test_finite_limits_keep_the_search(monkeypatch):
    # _near and closed_ball stop the search at their radius; the fold
    # answers only unlimited requests
    sp = ConeSpace(ConeGrid.build(*cycle_graph(8), geometric_heights(8)), LINEAR)
    assert sp._fold is not None
    calls, search = [], ConeSpace._row_blocks

    def spy(self, sources, limit=math.inf):
        calls.append(limit)
        return search(self, sources, limit)

    monkeypatch.setattr(ConeSpace, "_row_blocks", spy)
    sp.paired([("1", 2.0)], [("5", 4.0)])
    assert calls == []
    sp._near([("1", 2.0)], [("5", 4.0)], 3.0)
    sp.closed_ball(("1", 2.0), 3.0)
    assert calls == [3.0, 3.0]


# ---------------------------------------------------------------------------
# compactification diagnostic


def test_diagnostic_decay_on_cycle():
    nodes, edges = cycle_graph(16)
    grid = ConeGrid.build(nodes, edges, geometric_heights(64, extra=[10.0]))
    table = compactification_diagnostic(grid, LINEAR, 5.0, [4.0, 10.0, 32.0])
    assert table.all_passed()
    values = [row.measured_separation for row in table.rows]
    assert values == sorted(values, reverse=True)
    # at t = 4 a single base step costs 4 <= r_E: nonzero separation
    assert values[0] == 1.0
    # at t = 10 a single base step already exceeds r_E = 5
    assert table.rows[1].measured_separation == 0.0


def test_diagnostic_fails_honestly_below_apex_cutoff():
    # for t <= r_E / 2 the route through the apex (cost 2t) connects
    # arbitrary base points, so the r_E / lambda(t) bound genuinely fails;
    # the row must report that rather than pass vacuously
    nodes, edges = cycle_graph(16)
    grid = ConeGrid.build(nodes, edges, geometric_heights(64, extra=[2.0]))
    table = compactification_diagnostic(grid, LINEAR, 5.0, [2.0])
    row = table.rows[0]
    assert row.measured_separation == 8.0  # the full cycle diameter
    assert not row.passed
    assert not table.all_passed()


def test_diagnostic_zero_entourage():
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges, geometric_heights(8))
    table = compactification_diagnostic(grid, LINEAR, 0.0, [2.0])
    assert table.rows[0].measured_separation == 0.0


def test_diagnostic_requires_increasing_unbounded():
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges, geometric_heights(8))
    bounded = LambdaFunction("plateau", lambda t: min(t, 1.0))
    with pytest.raises(ValueError, match="increasing-unbounded"):
        compactification_diagnostic(grid, bounded, 5.0, [2.0])


def test_diagnostic_height_validation():
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges, geometric_heights(8))
    with pytest.raises(ValueError, match="positive"):
        compactification_diagnostic(grid, LINEAR, 5.0, [0.0])
    with pytest.raises(ValueError, match="beyond the grid"):
        compactification_diagnostic(grid, LINEAR, 5.0, [1000.0])


# a NaN or negative slack and a NaN radius fail every row, and a NaN
# threshold would index past the grid
@pytest.mark.parametrize("r, thresholds, slack, message", [
    (5.0, [2.0], -2.0, "slack must be finite and >= 0"),
    (5.0, [2.0], math.nan, "slack must be finite and >= 0"),
    (5.0, [2.0], math.inf, "slack must be finite and >= 0"),
    (math.nan, [2.0], 0.1, "entourage radius must be finite"),
    (math.inf, [2.0], 0.1, "entourage radius must be finite"),
    (5.0, [2.0, math.nan], 0.1, "threshold heights must be finite"),
    (5.0, [math.inf], 0.1, "threshold heights must be finite"),
])
def test_diagnostic_rejects_meaningless_arguments(r, thresholds, slack, message):
    grid = ConeGrid.build(*cycle_graph(6), geometric_heights(8))
    with pytest.raises(ValueError, match=message):
        compactification_diagnostic(grid, LINEAR, r, thresholds, slack)


def test_diagnostic_enumerates_under_the_cap():
    # heights 0, 1, 2, 4, 8: 3 rows of 6 points lie at or above t = 2
    grid = ConeGrid.build(*cycle_graph(6), geometric_heights(8, 1))
    for thresholds in ([2.0], [8.0, 2.0]):
        table = compactification_diagnostic(grid, LINEAR, 5.0, thresholds, cap=18)
        assert table == compactification_diagnostic(grid, LINEAR, 5.0, thresholds)
        with pytest.raises(CapExceeded, match="diagnostic enumeration exceeded cap of 17"):
            compactification_diagnostic(grid, LINEAR, 5.0, thresholds, cap=17)


def test_diagnostic_csv():
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges, geometric_heights(8))
    table = compactification_diagnostic(grid, LINEAR, 5.0, [4.0, 8.0])
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "t,measured_sep,bound,pass"
    assert len(lines) == 3
    assert lines[1].endswith("true")


def _diagnostic_grid(n):
    # heights 0, 1, 2, 4, 8, 16: at t = 2 four rows of n points lie above
    return ConeGrid.build(*cycle_graph(n), geometric_heights(16, 1))


@pytest.mark.parametrize("n", [120, 240])
def test_diagnostic_matches_brute_force_across_blocks(n):
    grid = _diagnostic_grid(n)
    above = [p for p in grid.grid_points() if p[1] >= 2.0]
    assert len(above) > 3 * _PAIRED_ROWS  # t = 2 spans four Dijkstra blocks or more
    d = ConeSpace(grid, LINEAR).pairwise(above, above)
    node = np.array([grid.node_index[v] for v, _ in above])
    height = np.array([t for _, t in above])
    thresholds = [2.0, 4.0, 8.0, 16.0]
    for r in (4.0, 12.0):
        table = compactification_diagnostic(grid, LINEAR, r, thresholds)
        for t, row in zip(thresholds, table.rows):
            a, b = np.nonzero((d <= r) & (height >= t) & (height >= t)[:, None])
            assert row.measured_separation == grid.base_distance[node[a], node[b]].max()


def test_diagnostic_memory_grows_with_the_block_not_the_table():
    # a diagnostic that held |above| x N distances would grow 4x from the
    # 120-cycle to the 240-cycle base, one that holds a block of rows 2x
    def peak(n):
        grid = _diagnostic_grid(n)
        tracemalloc.start()
        try:
            compactification_diagnostic(grid, LINEAR, 4.0, [2.0])
            return tracemalloc.get_traced_memory()[1], len(grid.grid_points())
        finally:
            tracemalloc.stop()

    (small, _), (big, size) = peak(120), peak(240)
    assert big < 3 * small
    assert big < 4 * 240 * size * 8 / 2  # half of the |above| x N float64 table


# ---------------------------------------------------------------------------
# independent oracle: the grid graph built edge by edge in networkx


def _networkx_grid_distances(grid, lam):
    """All-pairs grid distances from the documented edge rules, keyed by
    point, with no use of the library's point numbering or csr build."""
    import networkx as nx

    def point(v, t):
        return (APEX, 0.0) if t == 0.0 else (v, t)

    g = nx.Graph()
    hs = grid.heights
    for v in grid.nodes:
        for a, b in zip(hs, hs[1:]):  # vertical: the height difference
            g.add_edge(point(v, a), point(v, b), weight=b - a)
    for u, v, w in grid.edges:
        for t in hs[1:]:  # horizontal: lambda(t) * w
            g.add_edge((u, t), (v, t), weight=lam(t) * w)
        # diagonals: dt + max lambda * w; the library's graph leaves them
        # out, so matching this oracle shows that no shortest path needs one
        for a, b in zip(hs[1:], hs[2:]):
            diag = (b - a) + max(lam(a), lam(b)) * w
            g.add_edge((u, a), (v, b), weight=diag)
            g.add_edge((u, b), (v, a), weight=diag)
    return dict(nx.all_pairs_dijkstra_path_length(g))


@pytest.mark.parametrize("base, lam", [
    (cycle_graph(5), LINEAR),
    (load_edge_list("x y 1\ny z 3/2\nz x 2\n"), LambdaFunction.sqrt()),
    # flat on [1, 4]: there a diagonal ties with vertical-then-across
    (cycle_graph(5), LambdaFunction.from_table([(0, 0), (1, 1), (4, 1), (8, 3)])),
])
def test_pairwise_matches_networkx_oracle(base, lam):
    grid = ConeGrid.build(*base, geometric_heights(8, per_octave=2, extra=[3.0]))
    pts = grid.grid_points()
    oracle = _networkx_grid_distances(grid, lam)
    assert set(oracle) == set(pts)
    expected = np.array([[oracle[p][q] for q in pts] for p in pts])
    assert np.allclose(ConeSpace(grid, lam).pairwise(pts, pts), expected, rtol=0, atol=1e-9)
