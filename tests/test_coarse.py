import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import coarse
from coarselab.actions import lattice_translation, left_translation, right_translation
from coarselab.coarse import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    ControlledSetSpec,
    ScaleRow,
    _ball_entourage,
    _masked_max,
    _translated_entourage,
    bornologous_profile,
    closeness_bound,
    higson_defect,
    properness_table,
)
from coarselab.cone import ConeGrid, ConeSpace, LambdaFunction, cycle_graph
from coarselab.odometer import odometer_step
from coarselab.spaces import (
    BinaryTreeSpace,
    FreeGroupSpace,
    LatticeSpace,
    reduce_word,
    word_inverse,
    word_metric_bfs_oracle,
    word_multiply,
)

Z1 = LatticeSpace(1)
Z2 = LatticeSpace(2)
N1 = LatticeSpace(1, signed=False)
N2 = LatticeSpace(2, signed=False)
F2 = FreeGroupSpace()
T2 = BinaryTreeSpace()


def test_controlled_set_spec():
    e = ControlledSetSpec(3)
    assert e.contains(Z1, (0,), (3,))
    assert not e.contains(Z1, (0,), (4,))
    with pytest.raises(ValueError):
        ControlledSetSpec(-1)


# ---------------------------------------------------------------------------
# bornologous profiles


def test_identity_profile_is_diagonal():
    rep = bornologous_profile(lambda p: p, Z1, Z1, [1, 2, 4, 8], 8)
    assert [row.value for row in rep.rows] == [1, 2, 4, 8]
    assert rep.affine_slope == 1.0 and rep.affine_offset == 0.0
    assert rep.verdict == CERTIFIED


def test_right_translation_measured_bound():
    # |h| = 2: S(3) attains 3 + 2|h| = 7
    rep = bornologous_profile(right_translation("aa"), F2, F2, [3], 3)
    assert rep.rows[0].value == 7


@pytest.mark.parametrize("h", ["", "a", "ab", "bA", "aba"])
def test_translation_profile_never_beats_word_length_bound(h):
    radii = [1, 2, 3, 4]
    rep = bornologous_profile(right_translation(h), F2, F2, radii, 4)
    for row in rep.rows:
        assert row.value <= row.scale + 2 * len(h)


def test_translation_profile_on_lattice():
    g = (2, -1)
    rep = bornologous_profile(lattice_translation(g), Z2, Z2, [1, 2, 4], 6)
    for row in rep.rows:
        assert row.value == row.scale  # translations are isometries


def test_odometer_profile_depth_8():
    rep = bornologous_profile(odometer_step, T2, T2, [4], 8)
    assert rep.rows[0].value <= 6


def test_profile_monotone_in_radius():
    rep = bornologous_profile(right_translation("ab"), F2, F2, [1, 2, 3, 4, 5], 5)
    values = [row.value for row in rep.rows]
    assert values == sorted(values)


def test_affine_fit_falls_back_for_superlinear_maps():
    rep = bornologous_profile(lambda p: (2 * p[0],), Z1, Z1, [1, 2, 4, 8], 8)
    assert rep.affine_slope > 1.5
    for row in rep.rows:
        assert row.value <= rep.affine_slope * row.scale + rep.affine_offset + 1e-9


def test_profile_witnesses_recheck():
    rep = bornologous_profile(right_translation("ab"), F2, F2, [3], 3)
    row = rep.rows[0]
    x = "" if row.witness_src == "e" else row.witness_src
    y = "" if row.witness_dst == "e" else row.witness_dst
    assert F2.distance(x, y) <= 3
    fx, fy = word_multiply(x, "ab"), word_multiply(y, "ab")
    assert F2.distance(fx, fy) == row.value


def test_composition_profile_bound():
    # S_{g o f}(R) <= S_g(S_f(R)) on a shared sample
    f = right_translation("ab")
    g = right_translation("ba")
    radii = [1, 2, 3]
    rep_f = bornologous_profile(f, F2, F2, radii, 4)
    rep_gf = bornologous_profile(lambda p: g(f(p)), F2, F2, radii, 4)
    outer_radii = sorted({row.value for row in rep_f.rows})
    rep_g = bornologous_profile(g, F2, F2, outer_radii, 6)
    for row in rep_gf.rows:
        s_f = rep_f.value_at(row.scale)
        assert row.value <= rep_g.value_at(s_f)


def _profile_oracle(f, source, target, radii, sample_radius):
    """S(R) from scalar distances over all ordered pairs of the sample
    ball: the first row-major maximum, a radius with no pair reads 0."""
    pts = source.closed_ball(source.basepoint, sample_radius)
    images = [f(p) for p in pts]
    pairs = [(source.distance(p, q), target.distance(fp, fq), p, q)
             for p, fp in zip(pts, images) for q, fq in zip(pts, images)]
    rows = []
    for r in sorted(radii):
        best = None
        for d, value, p, q in pairs:
            if d <= r and (best is None or value > best[0]):
                best = (value, p, q)
        if best is None:
            rows.append(ScaleRow(float(r), 0.0))
        else:
            rows.append(ScaleRow(float(r), float(best[0]), source.format_point(best[1]),
                                 source.format_point(best[2])))
    return tuple(rows)


F2_CUSTOM = FreeGroupSpace(generators=("ab", "b"))
CONE = ConeSpace(ConeGrid.build(*cycle_graph(4), (0.0, 1.0, 2.0, 3.0)),
                 LambdaFunction.linear())
LONG = "ab" * 11  # left translates past the 20-letter packing limit
# source, target, sample radius, translations of the source into the target
_PROFILE_CASES = {
    "F2": (F2, F2, 3, st.text("aAbB", max_size=3).map(reduce_word).map(right_translation)),
    "T2": (T2, T2, 3, st.just(odometer_step)),
    "Z2": (Z2, Z2, 3, st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lattice_translation)),
    "N2": (N2, N2, 3, st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lattice_translation)),
    "F2-custom": (F2_CUSTOM, F2_CUSTOM, 2, st.sampled_from(["ab", "B"]).map(right_translation)),
    "F2-long": (F2, F2, 2, st.sampled_from([LONG, LONG + "A"]).map(left_translation)),
    "T2-Z1": (T2, Z1, 3, st.just(lambda v: (len(v) - sum(v),))),
    "cone": (CONE, CONE, 2, st.just(lambda p: p)),
}


@pytest.mark.parametrize("case", list(_PROFILE_CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_profile_matches_brute_force_oracle(case, data):
    source, target, sample_radius, translations = _PROFILE_CASES[case]
    pts = source.closed_ball(source.basepoint, sample_radius)
    f = data.draw(translations)
    kind = data.draw(st.sampled_from(["translation", "constant", "lookup"]))
    if kind == "constant":
        f = lambda p: target.basepoint
    elif kind == "lookup":  # a few images for many points: ties everywhere
        pool = data.draw(st.lists(st.sampled_from([f(p) for p in pts]), min_size=1, max_size=3))
        f = dict(zip(pts, data.draw(st.lists(
            st.sampled_from(pool), min_size=len(pts), max_size=len(pts))))).__getitem__
    # up to twice the sample diameter (6): some draws select every pair
    radii = data.draw(st.lists(
        st.sampled_from([-1, -0.5, 0, 0.5, 1, 1.5, 2, 3.25, 4, 6, 7.5, 12]),
        min_size=1, max_size=4, unique=True))
    # small blocks and batches: many per sample, some of one row, some of many
    with mock.patch.object(coarse, "BLOCK_PAIRS", data.draw(st.integers(1, 120))):
        rep = bornologous_profile(f, source, target, radii, sample_radius)
    assert rep.rows == _profile_oracle(f, source, target, radii, sample_radius)


def test_profile_measures_the_target_only_on_the_largest_entourage():
    # criterion 4's sample: E_6 holds 57,591 of the 1,062,153 pairs on or
    # above the diagonal of the radius-6 F2 ball
    f, radii = right_translation("ab"), [1, 2, 3, 4, 5, 6]
    pts = F2.closed_ball("", 6)
    images = [f(p) for p in pts]
    d_src, d_tgt = F2.pairwise(pts, pts), F2.pairwise(images, images)
    near = np.triu(d_src <= 6)
    assert (len(pts) * (len(pts) + 1) // 2, near.sum()) == (1_062_153, 57_591)

    calls = {}  # the index arrays each distance function was asked for, by its points
    measure = FreeGroupSpace._distances_at

    def spy(space, ps, limit=math.inf):
        dist, log = measure(space, ps, limit), calls.setdefault(tuple(ps), [])

        def logged(i, j):
            log.append(np.broadcast_arrays(i, j))
            return dist(i, j)
        return logged

    with mock.patch.object(FreeGroupSpace, "_distances_at", spy):
        rep = bornologous_profile(f, F2, F2, radii, 6)
    batches = calls[tuple(images)]
    i, j = (np.concatenate([b[k] for b in batches]) for k in (0, 1))
    # exactly the selected pairs, in row-major order, a few large batches
    assert (i.tolist(), j.tolist()) == tuple(a.tolist() for a in np.nonzero(near))
    assert all(len(b[0]) >= coarse.BLOCK_PAIRS for b in batches[:-1])
    assert len(batches) == -(-57_591 // coarse.BLOCK_PAIRS)
    assert [row.value for row in rep.rows] == [d_tgt[d_src <= r].max() for r in radii]


def test_masked_max_passes_over_an_unselected_fill():
    # byte values are masked to 0 by a multiply; a selected 0 still wins
    assert _masked_max(np.array([False, True]), np.array([0, 0], np.uint8)) == (0.0, 1)
    assert _masked_max(np.array([False, False]), np.array([3, 0], np.uint8)) is None
    assert _masked_max(np.array([[False], [True]]), np.array([[2.0], [0.0]])) == (0.0, 1)


def test_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        bornologous_profile(lambda p: p, Z1, Z1, [], 4)
    with pytest.raises(ValueError, match="distinct"):
        bornologous_profile(lambda p: p, Z1, Z1, [2, 1, 2], 4)
    with pytest.raises(ValueError, match="distinct"):
        properness_table(lambda p: p, Z1, Z1, [2.0, 2], 4)
    with pytest.raises(ValueError):
        bornologous_profile(lambda p: p, Z1, Z1, [1], -1)
    # NaN differs from itself, so no "distinct" test catches it
    for radii in ([math.nan], [math.nan, math.nan], [1, math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="finite"):
            bornologous_profile(lambda p: p, Z1, Z1, radii, 4)
        with pytest.raises(ValueError, match="finite"):
            properness_table(lambda p: p, Z1, Z1, radii, 8)


# ---------------------------------------------------------------------------
# properness


def test_identity_preimage_counts():
    rep = properness_table(lambda p: p, Z1, Z1, [5], domain_radius=50)
    assert rep.rows[0].value == 11
    assert rep.verdict == CERTIFIED


def test_bounded_orbit_map_is_refuted():
    # N -> Z1, n mod 5: the preimage of a small ball keeps filling every
    # domain window
    f = lambda p: (p[0] % 5,)
    rep = properness_table(f, N1, Z1, [5], domain_radius=200)
    assert rep.verdict == REFUTED
    assert rep.counterexample is not None
    # the witness re-checks with one distance evaluation per side
    src = tuple(int(c) for c in rep.counterexample[0].strip("()").split(","))
    dst = tuple(int(c) for c in rep.counterexample[1].strip("()").split(","))
    assert N1.distance(N1.basepoint, src) == 200
    assert Z1.distance(Z1.basepoint, dst) <= 5


def test_free_translation_preimage_is_bounded():
    h = "ab"
    rep = properness_table(right_translation(h), F2, F2, [3], domain_radius=9)
    assert rep.verdict == CERTIFIED
    assert rep.rows[0].value <= len(F2.closed_ball("", 3 + 2 * len(h)))


def test_constant_map_is_refuted():
    rep = properness_table(lambda p: (0,), Z1, Z1, [2], domain_radius=40)
    assert rep.verdict == REFUTED


_radii = st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=2), _radii, st.integers(1, 30))
def test_lattice_translation_is_never_refuted(by, radii, domain_radius):
    # the preimage of B(0, r) under p -> p + c reaches |c| + r, inside
    # every horizon the refutation rule counts
    z = LatticeSpace(len(by))
    rep = properness_table(lattice_translation(tuple(by)), z, z, radii, domain_radius)
    assert rep.verdict != REFUTED


@settings(max_examples=40, deadline=None)
@given(st.text("aAbB", max_size=4).map(reduce_word), st.sampled_from(["left", "right"]),
       _radii, st.integers(1, 7))
def test_free_group_translation_is_never_refuted(g, side, radii, domain_radius):
    f = left_translation(g) if side == "left" else right_translation(g)
    assert properness_table(f, F2, F2, radii, domain_radius).verdict != REFUTED


# ---------------------------------------------------------------------------
# closeness


def test_translation_close_to_identity_on_lattice():
    g = (1, -2)
    rep = closeness_bound(lattice_translation(g), lambda p: p, Z2, 20)
    assert rep.rows[-1].value == 3
    assert rep.verdict == CERTIFIED


def test_closeness_of_map_with_itself_is_zero():
    f = right_translation("ab")
    rep = closeness_bound(f, f, F2, 5)
    assert all(row.value == 0 for row in rep.rows)
    assert rep.verdict == CERTIFIED


def test_free_translation_not_close_to_identity():
    # d(x, ax) = |x^-1 a x| grows with |x|; exhaustive oracle at radius 6
    left_a = lambda p: word_multiply("a", p)
    rep = closeness_bound(left_a, lambda p: p, F2, 6)
    oracle = max(
        len(word_multiply(word_multiply(word_inverse(x), "a"), x))
        for x in F2.closed_ball("", 6)
    )
    assert oracle == 13
    assert rep.rows[-1].value == oracle
    assert rep.verdict == INCONCLUSIVE  # sup still growing at the window edge


# ---------------------------------------------------------------------------
# Higson defect


def test_constant_function_has_zero_defect():
    table = higson_defect(lambda p: 1.0, Z1, 5, [10, 20], window_radius=60)
    assert all(row.value == 0 for row in table.rows)


def test_oscillation_keeps_defect_large():
    table = higson_defect(
        lambda p: math.sin(p[0]), Z1, 10, [10, 100, 1000], window_radius=1500
    )
    assert all(row.value > 0.5 for row in table.rows)


def test_slow_function_defect_decays_and_is_monotone():
    f = lambda p: math.sin(math.log1p(abs(p[0])))
    table = higson_defect(f, Z1, 10, [100, 400, 1600], window_radius=2000)
    values = [row.value for row in table.rows]
    assert values == sorted(values, reverse=True)
    # mean-value oracle: |f(y) - f(x)| <= R / (1 + min(|x|,|y|)) outside B
    assert values[-1] <= 10 / (1 + 1600 - 10)


def test_defect_witness_recheck():
    f = lambda p: math.sin(p[0])
    table = higson_defect(f, Z1, 4, [20], window_radius=60)
    row = table.rows[0]
    x = tuple(int(c) for c in row.witness_src.strip("()").split(","))
    y = tuple(int(c) for c in row.witness_dst.strip("()").split(","))
    assert Z1.distance(x, y) <= 4
    assert not (abs(x[0]) <= 20 and abs(y[0]) <= 20)
    assert abs(f(y) - f(x)) == row.value


def _entourage_oracle(space, window, radius):
    """Window points, and every pair i < j within ``radius`` by brute-force
    ``pairwise``, each source's partners in closed-ball order."""
    points = list(word_metric_bfs_oracle(space, window))
    near = space.pairwise(points, points) <= radius
    pairs = [
        (i, j)
        for i in range(len(points))
        for j in sorted(np.nonzero(near[i])[0].tolist(),
                        key=lambda j: (len(points[j]), points[j]))
        if j > i
    ]
    return points, pairs


def _defect_oracle(space, points, pairs, f, balls):
    """The Higson table row by row: first largest gap, in pair order, over
    pairs not inside B x B."""
    depth = [space.distance(space.basepoint, p) for p in points]
    rows = []
    for b in balls:
        best = (0.0, "", "")
        for i, j in pairs:
            gap = abs(f(points[j]) - f(points[i]))
            if not (depth[i] <= b and depth[j] <= b) and (best[1] == "" or gap > best[0]):
                best = (gap, space.format_point(points[i]), space.format_point(points[j]))
        rows.append((float(b),) + best)
    return rows


@pytest.mark.parametrize(
    "space,window,radius",
    [
        (Z1, 12, 3),
        (Z2, 6, 2),
        (LatticeSpace(2, signed=False), 6, 2),
        (LatticeSpace(2, generators=((1, 2), (0, 3))), 4, 3),
        (LatticeSpace(3), 4, 2),
        (LatticeSpace(30), 1, 2),  # a mixed-radix key of 7^30 passes int64
        (F2, 3, 2),
    ],
    ids=["Z1", "Z2", "N2", "Z2-custom", "Z3", "Z30", "F2"],
)
def test_entourage_matches_brute_force(space, window, radius):
    points, pairs = _entourage_oracle(space, window, radius)
    build = _translated_entourage if isinstance(space, LatticeSpace) else _ball_entourage
    src, dst = build(space, points, radius)
    assert list(zip(src.tolist(), dst.tolist())) == pairs
    # a radial function ties everywhere, so the witnesses pin the pair order
    f = lambda p: float(space.distance(space.basepoint, p) % 3)
    balls = [window / 2, window]
    table = higson_defect(f, space, radius, balls, window_radius=window)
    rows = [(r.scale, r.value, r.witness_src, r.witness_dst) for r in table.rows]
    assert rows == _defect_oracle(space, points, pairs, f, balls)


def test_higson_witnesses_under_ties():
    table = higson_defect(lambda p: p[0] % 2, Z1, 3, [2, 5], window_radius=10)
    assert [(r.witness_src, r.witness_dst) for r in table.rows] == [
        ("(0)", "(-3)"), ("(-3)", "(-6)")
    ]
    n2 = LatticeSpace(2, signed=False)
    table = higson_defect(lambda p: (p[0] + p[1]) % 2, n2, 2, [3], window_radius=8)
    assert [(r.witness_src, r.witness_dst) for r in table.rows] == [("(0,3)", "(0,4)")]


def test_higson_validation_errors():
    with pytest.raises(ValueError, match="strictly increasing"):
        higson_defect(lambda p: 0.0, Z1, 2, [10, 10])
    with pytest.raises(ValueError, match="window"):
        higson_defect(lambda p: 0.0, Z1, 2, [100], window_radius=50)


# ---------------------------------------------------------------------------
# serialization


def test_report_csv_shape():
    rep = bornologous_profile(lambda p: p, Z1, Z1, [1, 2], 4)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "property,R_or_B,value,witness_src,witness_dst"
    assert len(lines) == 3
    assert lines[1].startswith("bornologous,1.0,")


def test_report_json_mirrors_report():
    rep = properness_table(lambda p: p, Z1, Z1, [2, 5], domain_radius=30)
    doc = rep.to_json_dict()
    assert doc["property"] == "proper"
    assert doc["verdict"] == rep.verdict
    assert len(doc["scale_table"]) == 2


def test_higson_csv_shape():
    table = higson_defect(lambda p: 1.0, Z1, 2, [5], window_radius=20)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "property,R_or_B,value,witness_src,witness_dst"
    assert lines[1].startswith("higson-defect,5.0,")
