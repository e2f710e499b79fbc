import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.cone import (
    APEX,
    ConeGrid,
    ConeSpace,
    LambdaFunction,
    compactification_diagnostic,
    cone_distance_lower,
    cone_distance_upper,
    cycle_graph,
    geometric_heights,
    lambda_length,
    load_edge_list,
)
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


def test_grid_validation():
    with pytest.raises(ValueError, match="apex row"):
        ConeGrid.build(("x",), (), (1.0, 2.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        ConeGrid.build(("x",), (), (0.0, 2.0, 2.0))
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
    assert cone_distance_upper(grid, LINEAR, ("x", 4.0), ("x", 4.0)) == 0.0
    assert cone_distance_upper(grid, LINEAR, ("x", 5.0), ("x", 9.0)) == 4.0
    assert cone_distance_upper(grid, LINEAR, ("x", 4.0), ("y", 4.0)) == 4.0


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


def test_validate_errors():
    sp = ConeSpace(two_point_grid(), LINEAR)
    with pytest.raises(ModelMismatch):
        sp.validate(("x", 1.7))
    with pytest.raises(ModelMismatch):
        sp.validate(("nope", 1.0))
    with pytest.raises(ModelMismatch):
        sp.validate(("x", -1.0))


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
    # 401 distinct sources: paired needs four Dijkstra calls of <= 128 rows
    grid = ConeGrid.build(*cycle_graph(16), geometric_heights(64))
    sp = ConeSpace(grid, LINEAR)
    pts = grid.grid_points()
    assert len(pts) > 3 * 128
    rng = random.Random(4)
    ps = rng.sample(pts, len(pts))
    qs = [rng.choice(pts) for _ in ps]
    paired = sp.paired(ps, qs)
    assert (paired == np.diag(sp.pairwise(ps, qs))).all()
    assert paired.tolist() == [sp.distance(p, q) for p, q in zip(ps, qs)]
    rows = sp.pairwise(pts, pts)
    for c in rng.sample(range(len(pts)), 20):
        r = rng.uniform(0, 40)
        assert sp.closed_ball(pts[c], r) == [q for q, d in zip(pts, rows[c]) if d <= r]


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


def test_diagnostic_csv():
    nodes, edges = cycle_graph(6)
    grid = ConeGrid.build(nodes, edges, geometric_heights(8))
    table = compactification_diagnostic(grid, LINEAR, 5.0, [4.0, 8.0])
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "t,measured_sep,bound,pass"
    assert len(lines) == 3
    assert lines[1].endswith("true")


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
