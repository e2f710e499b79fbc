import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import cli, coarse, spaces
from coarselab.actions import lattice_translation, left_translation, right_translation
from coarselab.coarse import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    ScaleRow,
    _masked_max,
    bornologous_profile,
    closeness_bound,
    higson_defect,
    properness_table,
)
from coarselab.cone import ConeGrid, ConeSpace, LambdaFunction, cycle_graph
from coarselab.odometer import odometer_step
from coarselab.spaces import (
    BinaryTreeSpace,
    CapExceeded,
    FreeGroupSpace,
    LatticeSpace,
    ModelMismatch,
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
# d(("1", 0.1), ("0", 0.7)) is 0.8 and the reverse 0.7999999999999999
SKEW = ConeSpace(ConeGrid.build(*cycle_graph(4), (0.0, 0.1, 0.3, 0.7, 1.1)),
                 LambdaFunction.sqrt())
LONG = "ab" * 11  # left translates past the 20-letter packing limit


def _skew_image(p):
    return ("0", 0.7) if p[0] < 0 else ("1", 0.1) if p[0] else ("*", 0.0)


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
    # an exact source into float distances: the first maximum of the full
    # rows, 0.8 from (1) to (-1), lies below the diagonal
    "Z1-cone": (Z1, SKEW, 3, st.just(_skew_image)),
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
    # small batches: many per sample, some of one row, some of many
    block = data.draw(st.integers(1, 120))
    coarse._profile_sample.cache_clear()
    with mock.patch.object(spaces, "BLOCK_PAIRS", block), \
            mock.patch.object(coarse, "BLOCK_PAIRS", block):
        rep = bornologous_profile(f, source, target, radii, sample_radius)
    assert rep.rows == _profile_oracle(f, source, target, radii, sample_radius)


def test_exact_source_profile_reads_full_rows_of_a_float_target():
    # the witness (1), (-1) sits below the diagonal; its mirror reads less
    rep = bornologous_profile(_skew_image, Z1, SKEW, [1, 2], 3)
    assert rep.rows[1] == ScaleRow(2.0, 0.8, "(1)", "(-1)")
    assert SKEW.distance(_skew_image((-1,)), _skew_image((1,))) < 0.8


def test_profile_measures_the_target_only_on_the_largest_entourage():
    # criterion 4's sample: E_6 holds 57,591 of the 1,062,153 pairs on or
    # above the diagonal of the radius-6 F2 ball
    f, radii = right_translation("ab"), [1, 2, 3, 4, 5, 6]
    pts = F2.closed_ball("", 6)
    images = [f(p) for p in pts]
    d_src, d_tgt = F2.pairwise(pts, pts), F2.pairwise(images, images)
    near = np.triu(d_src <= 6)
    assert (len(pts) * (len(pts) + 1) // 2, near.sum()) == (1_062_153, 57_591)

    # the index arrays each distance function was asked for, by its
    # points' packed codes: the translation's images are moved as codes
    calls = {}
    measure = FreeGroupSpace._kernel

    def spy(space, a, b):
        dist, log = measure(space, a, b), calls.setdefault(a[0].tobytes(), [])

        def logged(i, j):
            log.append(np.broadcast_arrays(i, j))
            return dist(i, j)
        return logged

    with mock.patch.object(FreeGroupSpace, "_kernel", spy):
        rep = bornologous_profile(f, F2, F2, radii, 6)
    batches = calls[F2._pack(images)[0].tobytes()]
    i, j = (np.concatenate([b[k] for b in batches]) for k in (0, 1))
    # exactly the selected pairs, in row-major order, a few large batches
    assert (i.tolist(), j.tolist()) == tuple(a.tolist() for a in np.nonzero(near))
    assert all(len(b[0]) >= coarse.BLOCK_PAIRS for b in batches[:-1])
    assert len(batches) == -(-57_591 // coarse.BLOCK_PAIRS)
    assert [row.value for row in rep.rows] == [d_tgt[d_src <= r].max() for r in radii]


def test_custom_generator_profile_stays_under_the_cap():
    # the pairs within max R are listed one closed ball of radius 2 per
    # point, and their word-length searches stop at max R; a cap below the
    # 13,121 words that searches to each pair's full distance would reach
    # gives the default cap's profile
    f = left_translation("a")
    capped = FreeGroupSpace(generators=("ab", "b"), cap=5000)
    free = FreeGroupSpace(generators=("ab", "b"))
    assert (bornologous_profile(f, capped, capped, [1, 2], 4)
            == bornologous_profile(f, free, free, [1, 2], 4))


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
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sample ball radius must be finite"):
            bornologous_profile(lambda p: p, Z1, Z1, [1], radius)
        with pytest.raises(ValueError, match="sample ball radius must be finite"):
            closeness_bound(lambda p: p, lambda p: p, Z1, radius)
        with pytest.raises(ValueError, match="domain radius must be finite"):
            properness_table(lambda p: p, Z1, Z1, [1], radius)


def _listed(space, ps, r, block=spaces.BLOCK_PAIRS):
    """The pairs (i, j) and distances d of ``space._listed_pairs`` on
    ``ps``, as three lists, and the sizes of its batches."""
    with mock.patch.object(spaces, "BLOCK_PAIRS", block):
        batches = list(space._listed_pairs(ps, r))
    pairs = [np.concatenate([b[k] for b in batches] or [[]]).tolist() for k in range(3)]
    return pairs, [len(b[0]) for b in batches]


def _brute_pairs(space, ps, r, key=None):
    """The pairs of ``ps`` within ``r`` from the full ``pairwise`` table,
    row-major, j >= i except on the cone, each row in index order or
    sorted by ``key`` of the points; and their distances."""
    table = space.pairwise(ps, ps)
    pairs = [(i, j) for i in range(len(ps))
             for j in sorted(np.nonzero(table[i] <= r)[0].tolist(),
                             key=None if key is None else lambda j: key(ps[j]))
             if j >= i or isinstance(space, ConeSpace)]
    return [[i for i, _ in pairs], [j for _, j in pairs], [table[i, j].item() for i, j in pairs]]


# space, centres, ball radius: each lister on balls about the root and
# elsewhere: prefix runs (F2, T2), one translated ball (the lattices),
# Dijkstra rows (the cone), and the fallback's balls and rows (F2-custom)
_LISTED = {
    "F2": (F2, ["", "a", "Ab", "bab"], 4),
    "T2": (T2, [(), (1,), (0, 1), (1, 1, 0)], 5),
    "Z2": (Z2, [(0, 0), (3, -1)], 3),
    "N2": (N2, [(0, 0), (2, 1)], 3),
    "Z2-custom": (LatticeSpace(2, generators=((1, 2), (0, 3))), [(0, 0), (1, 2)], 3),
    "cone": (CONE, [CONE.basepoint, ("1", 2.0)], 2),
    "F2-custom": (F2_CUSTOM, ["", "ab"], 2),
}


@pytest.mark.parametrize("case", list(_LISTED))
def test_listers_match_brute_force(case):
    space, centres, radius = _LISTED[case]
    for centre in centres:
        ps = space.closed_ball(centre, radius)
        for r in (-1, 0, 0.5, 1, 1.5, 3.5, 6, 2 * radius + 1):
            # only the prefix runs count their pairs before listing them
            assert (space._listed_pairs(ps, r).size is not None) == (case in ("F2", "T2"))
            assert _listed(space, ps, r)[0] == _brute_pairs(space, ps, r)


@pytest.mark.parametrize("case", list(_LISTED))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_listed_pairs_of_sorted_subsets(case, data):
    space, centres, radius = _LISTED[case]
    ball = space.closed_ball(data.draw(st.sampled_from(centres)), radius)
    ps = [ball[k] for k in sorted(data.draw(st.sets(st.integers(0, len(ball) - 1))))]
    r = data.draw(st.sampled_from([-1, 0, 0.5, 1, 2, 3.5, 5, 6, 2 * radius + 1]))
    block = data.draw(st.integers(1, 200))
    listed, sizes = _listed(space, ps, r, block=block)
    assert listed == _brute_pairs(space, ps, r)
    if case in ("F2", "T2"):
        assert all(size >= block for size in sizes[:-1])


def test_listed_pairs_decline_what_they_cannot_list():
    # the prefix runs decline these, and the fallback lists them
    ball = F2.closed_ball("", 2)
    assert F2._listed_pairs(ball, 2).size is not None
    by_ball = lambda p: (len(p), p)
    assert F2._listed_pairs(ball + ball[-1:], 2).size is None  # repeated
    for space, ps in [(F2, ball[::-1]), (F2, ["", "a", "A"]), (F2, ["", LONG]),
                      (T2, [(), (1,), (0,)]), (T2, [(), (0,) * 63])]:
        assert space._listed_pairs(ps, 2).size is None  # unsorted, unpacked
        assert _listed(space, ps, 2)[0] == _brute_pairs(space, ps, 2, key=by_ball)
    with pytest.raises(ModelMismatch):
        F2._listed_pairs(ball + ["aA"], 2)  # unreduced


def test_listed_profile_memory_grows_with_the_block_not_the_pairs():
    # every pair selected: 117,855 pairs on or above the diagonal of
    # B(e, 5), 1,062,153 of B(e, 6); holding them would grow 9x
    f = right_translation("ab")

    def peak(radius):
        tracemalloc.start()
        try:
            bornologous_profile(f, F2, F2, [12], radius)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, big = peak(5), peak(6)
    assert big < 1.5 * small
    assert big < 1_062_153 * 4  # a quarter of the pairs' two int64 indices


@pytest.mark.parametrize("case", list(_LISTED))
def test_listed_pairs_expand_afresh_on_each_iteration(case):
    space, centres, radius = _LISTED[case]
    ps = space.closed_ball(centres[1], radius)
    listed = space._listed_pairs(ps, 3)

    def pairs():
        return [np.concatenate(a).tolist() for a in zip(*listed)]

    once = pairs()
    assert once == _brute_pairs(space, ps, 3)
    assert pairs() == once


# source, a map of it into itself, two sample radii
_MEMO_CASES = {
    "F2": (F2, right_translation("ab"), (2, 3)),
    "T2": (T2, odometer_step, (3, 4)),
    "F2-custom": (F2_CUSTOM, right_translation("B"), (1, 2)),
    "Z2": (Z2, lattice_translation((1, -2)), (2, 3)),
    "N2": (N2, lattice_translation((1, 0)), (2, 3)),
    "cone": (CONE, lambda p: p, (1, 2)),
}


def _memo_reports(case, k):
    space, f, sample_radii = _MEMO_CASES[case]
    radius = sample_radii[k]
    return (bornologous_profile(f, space, space, [1, 2], radius),
            properness_table(f, space, space, [1, 2], radius + 1))


@pytest.mark.parametrize("pair", [("F2", "T2"), ("F2-custom", "Z2"), ("N2", "cone")])
def test_warm_reports_equal_cold_reports(pair):
    memos = (coarse._profile_sample, coarse._properness_domain)
    cold = {}
    for case in pair:
        for k in (0, 1):
            for memo in memos:
                memo.cache_clear()
            cold[case, k] = _memo_reports(case, k)
    # each source side is evicted by another radius or another source,
    # and refilled; every second visit in a row is a hit
    a, b = pair
    for case, k in [(a, 0), (a, 0), (a, 1), (a, 1), (b, 1), (b, 0), (b, 0), (a, 0)]:
        assert _memo_reports(case, k) == cold[case, k]
    assert [memo.cache_info().hits for memo in memos] == [3, 3]


def test_sample_over_the_cap_raises_on_every_call():
    small = FreeGroupSpace(cap=100)  # B(e, 3) holds 53 points, B(e, 4) 161
    for _ in range(2):
        with pytest.raises(CapExceeded):
            bornologous_profile(lambda p: p, small, small, [1], 4)
        with pytest.raises(CapExceeded):
            properness_table(lambda p: p, small, small, [1], 4)
        # a sample under the cap in between fills the memos
        bornologous_profile(lambda p: p, small, small, [1], 3)
        properness_table(lambda p: p, small, small, [1], 3)


def _batch_lists(batches):
    return [[a.tolist() for a in batch] for batch in batches]


# source, a map of it into itself, sample radius, radii: a few pairs a
# point, many, and (T2 at max R 12) every pair of the ball
_HELD_CASES = {
    "F2-3-1": (F2, right_translation("ab"), 3, [1]),
    "F2-4-3": (F2, right_translation("bA"), 4, [1, 2, 3]),
    "F2-6-6": (F2, right_translation("abA"), 6, [1, 2, 3, 4, 5, 6]),
    "T2-4-2": (T2, odometer_step, 4, [0.5, 2]),
    "T2-6-5": (T2, odometer_step, 6, [1, 3, 5]),
    "T2-5-12": (T2, odometer_step, 5, [2, 12]),
}


@pytest.mark.parametrize("case", list(_HELD_CASES))
def test_held_batches_equal_streamed_batches(case):
    space, f, radius, radii = _HELD_CASES[case]
    coarse._profile_sample.cache_clear()
    held_report = bornologous_profile(f, space, space, radii, radius)
    pts, _, held = coarse._profile_sample(space, radius, radii[-1])
    assert isinstance(held, tuple) and coarse._profile_sample.cache_info().hits == 1
    streamed = space._listed_pairs(pts, radii[-1])
    assert _batch_lists(held) == _batch_lists(streamed)
    for batch in held:
        for a in batch:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    # a cap between the ball size and the pair count: the profile streams
    pairs = streamed.size
    capped = type(space)(cap=pairs - 1)
    assert len(pts) <= capped.cap
    assert bornologous_profile(f, capped, capped, radii, radius) == held_report
    assert isinstance(coarse._profile_sample(capped, radius, radii[-1])[2], spaces._Listing)


@pytest.mark.parametrize("cap, expansions", [(spaces.DEFAULT_CAP, 1), (10_000, 53)])
def test_translation_profiles_expand_the_listed_pairs_once(cap, expansions):
    # criterion 4: the right translations by the 53 words of B(e, 3) over
    # B(e, 6), whose E_6 holds 57,591 pairs, list them once under the
    # default cap; under a smaller cap every profile expands them afresh
    coarse._profile_sample.cache_clear()
    source, words = FreeGroupSpace(cap=cap), F2.closed_ball("", 3)
    radii, calls, expand = [1, 2, 3, 4, 5, 6], [], spaces._Listing.__iter__

    def counted(listing):
        calls.append(listing)
        return expand(listing)

    with mock.patch.object(spaces._Listing, "__iter__", counted):
        reports = [bornologous_profile(right_translation(h), source, source, radii, 6)
                   for h in words]
    assert len(words) == 53 and len(calls) == expansions
    assert coarse._profile_sample.cache_info().hits == 52
    for h, rep in zip(words, reports):
        assert all(row.value <= row.scale + 2 * len(h) for row in rep.rows)


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
# translation images on the sample's array form


@st.composite
def _reduced_words(draw, lengths):
    w = ""
    for _ in range(draw(st.sampled_from(lengths))):
        w += draw(st.sampled_from(spaces._CHILD_LETTERS[w[-1:]]))
    return w


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_free_group_translation_images_match_packed_images(data):
    # points of up to 20 letters, whose images reach 19, 20 and 21 letters
    pts = data.draw(st.lists(_reduced_words([0, 1, 2, 5, 18, 19, 20]), min_size=1, max_size=8))
    side = data.draw(st.sampled_from(["left", "right", "both"]))
    # a short word (the empty one included), or one that undoes the
    # last or first j letters of a point (all of them when j = |x|)
    x = data.draw(st.sampled_from(pts))
    j = data.draw(st.integers(0, len(x)))
    tail = data.draw(_reduced_words([0, 1, 2]))
    h = data.draw(st.one_of(_reduced_words([0, 1, 2, 3]),
                            st.just(reduce_word(word_inverse(x[len(x) - j:]) + tail))))
    g = data.draw(st.one_of(_reduced_words([0, 1, 2, 3]),
                            st.just(reduce_word(tail + word_inverse(x[:j])))))
    if side == "left":
        f = left_translation(g)
    elif side == "right":
        f = right_translation(h)
    else:
        f = lambda p: word_multiply(g, word_multiply(p, h))
        f.translation = (g, h)
    images = [f(p) for p in pts]
    moved = F2._translated(F2._packed(pts), f.translation)
    # x h is formed first
    halfway = [word_multiply(p, f.translation[1]) for p in pts]
    if max(map(len, [*images, *halfway, *f.translation])) > 20:
        assert moved is None  # past the packing limit: the list path
    else:
        codes, lengths = F2._pack(images)
        assert (moved[0].dtype, moved[1].dtype) == (codes.dtype, lengths.dtype)
        assert (moved[0].tolist(), moved[1].tolist()) == (codes.tolist(), lengths.tolist())


_LIMITS = {rank: np.iinfo(np.int64).max // (2 * rank) for rank in (1, 2)}


@pytest.mark.parametrize("by, space, lengths", [
    ((0, 1), LatticeSpace(1), "length 2 applied to a point of length 1"),
    ((1,), LatticeSpace(2), "length 1 applied to a point of length 2"),
], ids=["longer", "shorter"])
def test_lattice_translation_of_another_length_is_a_mismatch(by, space, lengths):
    # a longer vector once dropped its extra coordinates, so a profile
    # certified p -> p + (0, 1) on Z^1 as an isometry
    f = lattice_translation(by)
    with pytest.raises(ModelMismatch, match=lengths):
        f(space.basepoint)
    with pytest.raises(ModelMismatch, match=lengths):
        bornologous_profile(f, space, space, [1, 2], 3)
    with pytest.raises(ModelMismatch, match=lengths):
        properness_table(f, space, space, [1, 2], 4)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_lattice_translation_images_match_coordinates(data):
    space = data.draw(st.sampled_from([Z1, Z2, N1, N2]))
    limit = _LIMITS[space.rank]
    near = [limit - 1, limit, limit + 1, 2**62, 2**63, 2**64]
    coord = st.one_of(st.integers(-3, 3), st.sampled_from(near + [-c for c in near]))
    point = st.tuples(*[coord] * space.rank)
    pts = data.draw(st.lists(point.map(lambda p: p if space.signed else tuple(map(abs, p))),
                             min_size=1, max_size=6))
    f = lattice_translation(data.draw(point))
    images = [f(p) for p in pts]
    moved = space._translated(space._packed(pts), f.translation)
    # the array path runs only where _coords keeps int64 and, on N^k, in
    # the orthant; elsewhere the list path stays exact
    fits = all(abs(c) <= limit for p in [*pts, *images, f.translation] for c in p) and (
        space.signed or min(c for p in images for c in p) >= 0)
    assert (moved is not None) == fits
    if fits:
        assert moved.dtype == space._coords(images).dtype == np.int64
        assert moved.tolist() == [list(p) for p in images]


# map, source, target, sample radius: translations on the array path and
# every case that keeps the list path
_ARRAY_CASES = {
    "F2-right": (right_translation("abA"), F2, F2, 4),
    "F2-left": (left_translation("Ba"), F2, F2, 4),
    "F2-e": (right_translation(""), F2, F2, 3),
    "F2-whole-word": (left_translation("bbb"), F2, F2, 3),
    "Z2": (lattice_translation((2, -1)), Z2, Z2, 4),
    "N2": (lattice_translation((1, 3)), N2, N2, 4),
    "Z1-near-int64": (lattice_translation((_LIMITS[1] - 9,)), Z1, Z1, 4),
    "Z1-past-int64": (lattice_translation((_LIMITS[1] - 2,)), Z1, Z1, 4),
    "Z1-far-past-int64": (lattice_translation((2**64,)), Z1, Z1, 4),
    "F2-custom": (right_translation("B"), F2_CUSTOM, F2_CUSTOM, 2),
    "F2-long": (left_translation(LONG), F2, F2, 2),
    "N1-into-Z1": (lattice_translation((-2,)), N1, Z1, 4),
    "F2-into-F2-custom": (right_translation("b"), F2, F2_CUSTOM, 2),
}


def _reports(f, source, target, radius):
    reports = (bornologous_profile(f, source, target, [1, 2, 3], radius),
               properness_table(f, source, target, [1, 2], radius + 2))
    return reports, [(rep.to_csv(), json.dumps(rep.to_json_dict())) for rep in reports]


@pytest.mark.parametrize("case", list(_ARRAY_CASES))
def test_translation_reports_equal_the_list_path(case):
    f, source, target, radius = _ARRAY_CASES[case]
    plain = lambda p: f(p)  # the same values, no translation: point by point
    assert _reports(f, source, target, radius) == _reports(plain, source, target, radius)


@pytest.mark.parametrize("f, source, target, certifier, message", [
    (right_translation("aA"), F2, F2, bornologous_profile, "'aA'"),
    (right_translation("aA"), F2, F2, properness_table, "'aA'"),
    (left_translation("x"), F2, F2, bornologous_profile, "'x'"),
    (left_translation("x"), F2, F2, properness_table, "'x'"),
    (lattice_translation((-1,)), N1, N1, properness_table, "negative coordinate: (-1,)"),
    (lattice_translation((1,)), Z1, N1, bornologous_profile, "negative coordinate: (-2,)"),
])
def test_translation_errors_equal_the_list_path(f, source, target, certifier, message):
    with pytest.raises(ModelMismatch) as translated:
        certifier(f, source, target, [1, 2], 3)
    with pytest.raises(ModelMismatch) as plain:
        certifier(lambda p: f(p), source, target, [1, 2], 3)
    assert str(translated.value) == str(plain.value)
    assert str(translated.value).endswith(message)


@pytest.mark.parametrize("space, by, step", [
    (F2, ("", "ab"), lambda p: word_multiply(p, "ab")),
    (F2, ("Ab", ""), lambda p: word_multiply("Ab", p)),
    (Z2, (1, -2), lambda p: (p[0] + 1, p[1] - 2)),
])
def test_translations_are_not_mapped_point_by_point(space, by, step):
    calls = []

    def f(p):
        calls.append(p)
        return step(p)

    f.translation = by
    bornologous_profile(f, space, space, [1, 2], 4)
    assert calls == []
    properness_table(f, space, space, [1, 2], 6)
    assert len(calls) == 2  # the witness image of each radius


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


@pytest.mark.parametrize("space, radius, balls, window", [
    (Z1, 0, [2], 5),       # E_0 holds only the diagonal
    (Z1, 0.5, [1, 3], 6),  # below the least distance of an integer model
    (Z1, 4, [0], 0),       # a one-point window
    (F2, 0, [1], 2),       # the ball-by-ball entourage
], ids=["Z1-radius-0", "Z1-radius-half", "one-point-window", "F2-radius-0"])
def test_higson_defect_without_pairs_reads_zero(space, radius, balls, window):
    table = higson_defect(lambda p: 1.0, space, radius, balls, window_radius=window)
    assert table.rows == tuple(ScaleRow(float(b), 0.0) for b in balls)


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
    """Window points (as ``higson_defect`` takes them), and every pair
    i < j within ``radius`` by brute-force ``pairwise``, each source's
    partners in closed-ball order: grid order on the cone, else sorted by
    (length, point)."""
    points = coarse._window(lambda p: 0.0, space, window)[0]
    near = space.pairwise(points, points) <= radius
    if isinstance(space, ConeSpace):
        key = lambda j: space.grid.point_index[points[j]]
    else:
        key = lambda j: (len(points[j]), points[j])
    pairs = [
        (i, j)
        for i in range(len(points))
        for j in sorted(np.nonzero(near[i])[0].tolist(), key=key)
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
        (T2, 5, 2),
        (FreeGroupSpace(generators=("ab", "b")), 3, 2),  # unsorted window: ball by ball
        (CONE, 4, 1.5),
    ],
    ids=["Z1", "Z2", "N2", "Z2-custom", "Z3", "Z30", "F2", "T2", "F2-custom", "cone"],
)
def test_entourage_matches_brute_force(space, window, radius):
    points, pairs = _entourage_oracle(space, window, radius)
    # the standard F2 and tree list the pairs by prefix runs
    assert (space._listed_pairs(points, radius).size is not None) == (space in (F2, T2))
    assert _entourage(space, points, radius) == pairs
    assert all(a.dtype == np.int64 for b in space._listed_pairs(points, radius) for a in b[:2])
    # a radial function ties everywhere, so the witnesses pin the pair order
    f = lambda p: float(space.distance(space.basepoint, p) % 3)
    balls = [window / 2, window]
    table = higson_defect(f, space, radius, balls, window_radius=window)
    rows = [(r.scale, r.value, r.witness_src, r.witness_dst) for r in table.rows]
    assert rows == _defect_oracle(space, points, pairs, f, balls)


def _entourage(space, points, radius, lister=None):
    """The pairs i < j of ``points`` within ``radius`` that ``higson_defect``
    reads: those of the space's listing, or of ``lister``'s."""
    batches = (lister or type(space)._listed_pairs)(space, points, radius)
    return [(i, j) for a, b, _ in batches for i, j in zip(a.tolist(), b.tolist()) if j > i]


@pytest.mark.parametrize(
    "space,window,radius",
    [
        (Z1, 12, 3),
        (LatticeSpace(2), 6, 2),
        (LatticeSpace(3), 4, 2),
        (LatticeSpace(2, signed=False), 6, 2),
        (LatticeSpace(2, generators=((1, 2), (0, 3))), 4, 3),
    ],
    ids=["Z1", "Z2", "Z3", "N2", "Z2-custom"],
)
def test_direct_address_entourage_matches_the_sorted_search(space, window, radius):
    points = list(word_metric_bfs_oracle(space, window))
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
        direct = _entourage(space, points, radius)
        assert not search.called
        # a cap that holds the offsets ball but not the key range keeps the search
        offsets = len(dataclasses.replace(space, signed=True).closed_ball(space.basepoint, radius))
        searched = _entourage(dataclasses.replace(space, cap=offsets), points, radius)
        assert search.called
    # the reference is the fallback's one closed_ball per point
    assert direct == searched == _entourage(space, points, radius, spaces.Space._listed_pairs)


@pytest.mark.parametrize("far", [False, True], ids=["span-in-int64", "span-past-int64"])
def test_entourage_past_int64(far):
    # coordinates past int64 whose key range fits int64 take the table; with
    # a window across 2^70 the keys pass int64 too, and the search is kept
    cluster = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if abs(x) + abs(y) <= 3]
    points = [(2**70 + x, y) for x, y in cluster] + (cluster if far else [])
    space = LatticeSpace(2)
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
        pairs = _entourage(space, points, 2)
        assert search.called == far
    by_ball = lambda ps: _entourage(space, ps, 2, spaces.Space._listed_pairs)
    assert pairs == by_ball(points)
    assert len(pairs) == (2 if far else 1) * len(by_ball(cluster))


def test_higson_witnesses_under_ties():
    table = higson_defect(lambda p: p[0] % 2, Z1, 3, [2, 5], window_radius=10)
    assert [(r.witness_src, r.witness_dst) for r in table.rows] == [
        ("(0)", "(-3)"), ("(-3)", "(-6)")
    ]
    n2 = LatticeSpace(2, signed=False)
    table = higson_defect(lambda p: (p[0] + p[1]) % 2, n2, 2, [3], window_radius=8)
    assert [(r.witness_src, r.witness_dst) for r in table.rows] == [("(0,3)", "(0,4)")]


def test_higson_validation_errors():
    for radius, balls, window, message in [
        (2, [10, 10], None, "ball radii must be strictly increasing"),
        (2, [100], 50, "window radius is smaller than the largest ball"),
        (1, [], None, "ball radii must be non-empty"),
        (1, [5.0, math.nan], None, "ball radii must be finite"),
        (1, [math.inf], None, "ball radii must be finite"),
        (1, [-1.0, 2.0], None, "ball radii must be >= 0"),
        (math.nan, [2.0], None, "entourage radius must be finite"),
        (math.inf, [2.0], None, "entourage radius must be finite"),
        (-1, [2.0], None, "entourage radius must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            higson_defect(lambda p: 0.0, Z1, radius, balls, window_radius=window)


# a small cone grid: no BFS oracle, so the window comes from closed_ball
_RADIAL_CASES = {
    "Z1": (Z1, 30, 3, [5, 20]),
    "N2": (N2, 8, 2, [3, 6]),
    "Z2-custom": (LatticeSpace(2, generators=((1, 2), (0, 3))), 4, 3, [2, 4]),
    "F2": (F2, 4, 2, [1, 3]),
    "T2": (T2, 6, 2, [2, 5]),
    "cone": (CONE, 4, 1, [1, 3]),
}


@pytest.mark.parametrize("case", list(_RADIAL_CASES))
def test_radial_function_matches_the_scalar_path(case):
    space, window, radius, balls = _RADIAL_CASES[case]
    f = cli._FUNCTIONS["sin-log"](space)
    with mock.patch.object(type(space), "distance", side_effect=AssertionError):
        points, _, values = coarse._window(f, space, window)
    scalar = [math.sin(math.log1p(space.distance(space.basepoint, p))) for p in points]
    assert len(points) > 1 and values.tolist() == scalar
    # the same function without its radial mark takes the per-point path
    tables = [higson_defect(g, space, radius, balls, window_radius=window)
              for g in (f, lambda p: f(p))]
    assert tables[0].rows == tables[1].rows


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
