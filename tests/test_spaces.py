import itertools
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarselab.spaces import (
    BallSpec,
    BinaryTreeSpace,
    CapExceeded,
    FreeGroupSpace,
    LatticeSpace,
    ModelMismatch,
    enumerate_reduced_words,
    is_reduced,
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

letters = st.sampled_from("aAbB")
raw_words = st.text(alphabet="aAbB", max_size=24)


# ---------------------------------------------------------------------------
# free reduction


def test_reduce_word_examples():
    assert reduce_word("aAb") == "b"
    assert reduce_word("abBA") == ""
    assert reduce_word("aabBA") == "a"


def test_reduce_word_invalid_letter():
    with pytest.raises(ValueError, match="invalid letter"):
        reduce_word("axb")


def _reduce_random_order(word: str, rng: random.Random) -> str:
    # oracle: cancel any adjacent inverse pair in random order until none
    chars = list(word)
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    while True:
        pairs = [
            i for i in range(len(chars) - 1) if chars[i + 1] == inv[chars[i]]
        ]
        if not pairs:
            return "".join(chars)
        i = rng.choice(pairs)
        del chars[i : i + 2]


@given(raw_words, st.integers(0, 2**30))
@settings(max_examples=200)
def test_reduce_word_matches_random_order_oracle(word, seed):
    assert reduce_word(word) == _reduce_random_order(word, random.Random(seed))


@given(raw_words)
def test_reduce_word_idempotent(word):
    reduced = reduce_word(word)
    assert reduce_word(reduced) == reduced
    assert is_reduced(reduced)


@given(raw_words)
def test_word_inverse_cancels(word):
    w = reduce_word(word)
    assert word_multiply(w, word_inverse(w)) == ""
    assert word_multiply(word_inverse(w), w) == ""


@given(raw_words, raw_words, raw_words)
@settings(max_examples=100)
def test_word_multiply_associative(u, v, w):
    u, v, w = reduce_word(u), reduce_word(v), reduce_word(w)
    assert word_multiply(word_multiply(u, v), w) == word_multiply(u, word_multiply(v, w))


@given(raw_words, raw_words, st.integers(0, 24))
@example("", "", 0)
@example("ab", "", 0)
@example("", "Ba", 0)
@example("abA", "aBA", 0)  # full cancellation
@example("abA", "aBAb", 0)
@example("ab", "Ba", 0)
@settings(max_examples=300)
def test_word_multiply_matches_full_reduction(u, v, k):
    # v opens with the inverse of u's last k letters (all of u once k >= |u|)
    u = reduce_word(u)
    v = reduce_word(word_inverse(u[max(len(u) - k, 0):]) + v)
    assert word_multiply(u, v) == reduce_word(u + v)


def _is_reduced_oracle(w: str) -> bool:
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    return all(ch in inv for ch in w) and all(inv[x] != y for x, y in zip(w, w[1:]))


@given(st.text(alphabet="aAbBx\n", max_size=12))
@settings(max_examples=300)
def test_is_reduced_matches_letter_oracle(w):
    assert is_reduced(w) == _is_reduced_oracle(w)


def test_is_reduced_rejects_non_strings():
    assert not is_reduced(("a", "b"))
    assert not is_reduced(None)
    assert not is_reduced(["a"])


@given(st.text(alphabet="aAbBéßΑα\x00\n\t ", max_size=12))
@example("a\x00A")
@example("aé")
@example("Α")  # Greek capital alpha, not the letter A
@settings(max_examples=300)
def test_is_reduced_matches_letter_oracle_over_wide_alphabet(w):
    assert is_reduced(w) == _is_reduced_oracle(w)


@given(st.lists(st.text(alphabet="aAbBx\n", max_size=6), max_size=6))
@example([])
@example([""])
@example(["a", "A"])  # a cancelling pair across two words is no fault
@example(["a\nb"])  # one word holding a separator
@example(["ab", "", "\n"])
@settings(max_examples=300)
def test_batch_check_agrees_with_is_reduced(ps):
    assert F2._all_valid(ps) == all(map(is_reduced, ps))


def test_enumerate_reduced_words_counts():
    assert sorted(enumerate_reduced_words(0)) == [""]
    assert len(list(enumerate_reduced_words(1))) == 4
    assert len(list(enumerate_reduced_words(3))) == 4 * 3 * 3
    assert all(is_reduced(w) for w in enumerate_reduced_words(4))


def test_enumerate_reduced_words_rejects_a_negative_length():
    with pytest.raises(ValueError, match="^length must be >= 0$"):
        enumerate_reduced_words(-1)


# ---------------------------------------------------------------------------
# distances


def test_distance_examples():
    assert Z2.distance((0, 0), (3, 4)) == 7
    assert F2.distance("", "abA") == 3
    # parent relation in the tree: bits are LSB first
    assert T2.distance((1, 1, 0), (1, 1)) == 1


def test_tree_distance_against_bfs():
    oracle = word_metric_bfs_oracle(T2, 8)
    v, w = (1, 1, 0), (1, 1)
    assert oracle[v] == 3 and oracle[w] == 2
    # d(v, w) = depth(v) + depth(w) - 2 lcp through the root formula
    assert T2.distance(v, w) == 1


def test_closed_ball_examples():
    assert Z1.closed_ball((0,), 2) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(F2.closed_ball("", 2)) == 17
    assert T2.closed_ball((), 1) == [(), (0,), (1,)]


def test_bfs_oracle_examples():
    table = word_metric_bfs_oracle(Z2, 3)
    assert table[(1, 2)] == 3
    assert len(word_metric_bfs_oracle(F2, 3)) == 53
    assert word_metric_bfs_oracle(N1, 2) == {(0,): 0, (1,): 1, (2,): 2}


@pytest.mark.parametrize("space,r", [(Z2, 8), (N2, 8), (F2, 8), (T2, 8)])
def test_distance_agrees_with_bfs_oracle_radius_8(space, r):
    oracle = word_metric_bfs_oracle(space, r)
    base = space.basepoint
    for p, d in oracle.items():
        assert space.distance(base, p) == d


def test_closed_ball_matches_oracle_and_is_monotone():
    for space in (Z2, F2, T2, N2):
        oracle = word_metric_bfs_oracle(space, 5)
        prev = set()
        for r in range(6):
            ball = set(space.closed_ball(space.basepoint, r))
            assert ball == {p for p, d in oracle.items() if d <= r}
            assert prev <= ball
            prev = ball


def test_closed_ball_negative_radius_and_cap():
    with pytest.raises(ValueError):
        Z1.closed_ball((0,), -1)
    for r in (math.nan, math.inf, -math.inf):
        for space in (Z1, F2, T2):
            with pytest.raises(ValueError, match="radius must be finite"):
                space.closed_ball(space.basepoint, r)
        with pytest.raises(ValueError, match="radius must be finite"):
            BallSpec((0,), r)
    tiny = LatticeSpace(2, cap=10)
    with pytest.raises(CapExceeded):
        tiny.closed_ball((0, 0), 100)


def _searched_ball(space, center, r):
    """``closed_ball`` with the listed-ball path switched off: the
    breadth-first search over ``neighbors``."""
    with mock.patch.object(type(space), "_listed_ball", return_value=None):
        return space.closed_ball(center, r)


@pytest.mark.parametrize(
    "space,centers",
    [(F2, ["a", "Ab", "bab"]), (T2, [(0,), (1, 0), (1, 1, 0)])],
    ids=["F2", "T2"],
)
@pytest.mark.parametrize("r", [*range(9), 6.5])
def test_listed_balls_match_the_search(space, centers, r):
    root = space.basepoint
    assert space._listed_ball(root, math.floor(r)) is not None
    assert space.closed_ball(root, r) == _searched_ball(space, root, r)
    for center in centers:
        assert space._listed_ball(center, math.floor(r)) is None
        assert space.closed_ball(center, r) == _searched_ball(space, center, r)


@pytest.mark.parametrize("space", [F2, T2], ids=["F2", "T2"])
@pytest.mark.parametrize("r", [0, 1, 5])
def test_listed_balls_keep_the_search_cap(space, r):
    n = len(_searched_ball(space, space.basepoint, r))
    assert replace(space, cap=n).closed_ball(space.basepoint, r) == _searched_ball(
        space, space.basepoint, r
    )
    tight = replace(space, cap=n - 1)
    if r == 0:  # the search counts no cap for the center alone
        assert tight.closed_ball(tight.basepoint, r) == [tight.basepoint]
        return
    with pytest.raises(CapExceeded) as searched:
        _searched_ball(tight, tight.basepoint, r)
    with pytest.raises(CapExceeded) as listed:
        tight.closed_ball(tight.basepoint, r)
    assert str(listed.value) == str(searched.value) == (
        f"ball enumeration exceeded cap of {n - 1} points"
    )


@pytest.mark.parametrize("space", [F2, T2, Z2, LatticeSpace(3)], ids=["F2", "T2", "Z2", "Z3"])
def test_ball_size_counts_the_ball(space):
    # validate predicts verify-coarse's balls against the cap from _ball_size
    for r in range(8):
        assert space._ball_size(r) == len(_searched_ball(space, space.basepoint, r))
        assert space._ball_size(r) == len(space.closed_ball(space.basepoint, r))


@pytest.mark.parametrize("generators", [("ab", "b"), ("a", "bab")])
def test_custom_free_group_balls_come_from_the_search(generators):
    space = FreeGroupSpace(generators=generators)
    for r in range(4):
        assert space._listed_ball(space.basepoint, r) is None
        assert space.closed_ball(space.basepoint, r) == _searched_ball(
            space, space.basepoint, r
        )


_LATTICES = {
    **{f"Z{k}": LatticeSpace(k) for k in range(1, 5)},
    **{f"N{k}": LatticeSpace(k, signed=False) for k in range(1, 4)},
}


def _int64_safe(space):
    """The largest |coordinate| that ``LatticeSpace._coords`` keeps in int64."""
    return np.iinfo(np.int64).max // (2 * space.rank)


def _lattice_centers(space, r):
    """(center, listed) pairs: the origin, off-origin centers, centers whose
    ball just stays in or just leaves the int64-safe range, and one beyond
    int64, each with whether ``_listed_ball`` takes it."""
    k, edge = space.rank, _int64_safe(space) - r
    centers = [((0,) * k, True), ((1,) + (3,) * (k - 1), True),
               ((edge,) + (0,) * (k - 1), True), ((edge + 1,) + (0,) * (k - 1), False),
               ((0,) * (k - 1) + (2**70,), False)]
    if space.signed:
        centers += [((-2,) * k, True), ((0,) * (k - 1) + (-edge,), True),
                    ((0,) * (k - 1) + (-edge - 1,), False)]
    return centers


@pytest.mark.parametrize("space", list(_LATTICES.values()), ids=list(_LATTICES))
@pytest.mark.parametrize("r", [0, 1, 2, 3, 2.5])
def test_lattice_listed_balls_match_the_search(space, r):
    for center, listed in _lattice_centers(space, math.floor(r)):
        assert (space._listed_ball(center, math.floor(r)) is not None) == listed
        ball = space.closed_ball(center, r)
        assert ball == _searched_ball(space, center, r)
        assert {type(c) for p in ball for c in p} == {int}


@pytest.mark.parametrize("space", list(_LATTICES.values()), ids=list(_LATTICES))
@pytest.mark.parametrize("r", [0, 1, 3])
def test_lattice_listed_balls_keep_the_search_cap(space, r):
    # N^k counts its ball in the ambient Z^k, as its search steps through it
    n = space._ball_size(r)
    assert n == len(_searched_ball(replace(space, signed=True), space.basepoint, r))
    for center, _ in _lattice_centers(space, r):
        assert replace(space, cap=n).closed_ball(center, r) == _searched_ball(space, center, r)
        tight = replace(space, cap=n - 1)
        if r == 0:  # the search counts no cap for the center alone
            assert tight.closed_ball(center, r) == [center]
            continue
        with pytest.raises(CapExceeded) as searched:
            _searched_ball(tight, center, r)
        with pytest.raises(CapExceeded) as listed:
            tight.closed_ball(center, r)
        assert str(listed.value) == str(searched.value) == (
            f"ball enumeration exceeded cap of {n - 1} points"
        )


def test_n2_ball_counts_the_ambient_ball_against_the_cap():
    # B((0, 0), 1) in N^2 holds 3 points, but the search counts Z^2's 5
    space = LatticeSpace(2, signed=False, cap=4)
    assert len(N2.closed_ball((0, 0), 1)) == 3
    for enumerate_ball in (space.closed_ball, lambda c, r: _searched_ball(space, c, r)):
        with pytest.raises(CapExceeded, match="^ball enumeration exceeded cap of 4 points$"):
            enumerate_ball((0, 0), 1)


def test_custom_lattice_balls_come_from_the_search():
    space = LatticeSpace(2, generators=((1, 2), (0, 3)))
    assert space._ball_size(2) is None
    for r in range(4):
        assert space._listed_ball(space.basepoint, r) is None
        assert space.closed_ball(space.basepoint, r) == _searched_ball(
            space, space.basepoint, r
        )


@pytest.mark.parametrize(
    "space,points",
    [
        (Z2, [(0, 0), (3, -7), (np.int64(2), 5)]),
        (N2, [(0, 0), (0, 4)]),
        (LatticeSpace(3), [(1, 2, 3)]),
        (LatticeSpace(2, generators=((1, 2), (0, 3))), [(0, 0), (-4, 9)]),
        (LatticeSpace(1, generators=((2,), (3,))), [(5,)]),
        (Z2, [(2**70, -(2**64)), (-(2**63), 2**63 - 1)]),
    ],
    ids=["Z2", "N2", "Z3", "Z2-custom", "Z1-custom", "Z2-big"],
)
def test_neighbors_add_each_move(space, points):
    for v in points:
        v = space.validate(v)
        steps = space.neighbors(v)
        assert steps == [tuple(a + b for a, b in zip(v, m)) for m in space.moves]
        assert {type(c) for w in steps for c in w} == {int}


# ---------------------------------------------------------------------------
# metric axioms on >= 10^4 sampled triples per model


def _sample_points(space, rng, count):
    if isinstance(space, LatticeSpace):
        lo = 0 if not space.signed else -50
        return [
            tuple(rng.randint(lo, 50) for _ in range(space.rank))
            for _ in range(count)
        ]
    if isinstance(space, FreeGroupSpace):
        out = []
        for _ in range(count):
            w = ""
            for _ in range(rng.randint(0, 12)):
                choices = [c for c in "aAbB" if not w or c != word_inverse(w[-1])]
                w += rng.choice(choices)
            out.append(w)
        return out
    out = []
    for _ in range(count):
        out.append(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 14))))
    return out


@pytest.mark.parametrize("space", [Z2, N2, F2, T2], ids=["Z2", "N2", "F2", "T2"])
def test_metric_axioms_mass_sample(space):
    rng = random.Random(7)
    pts = _sample_points(space, rng, 400)
    triples = [(rng.randrange(400), rng.randrange(400), rng.randrange(400))
               for _ in range(10_000)]
    dmat = space.pairwise(pts, pts)
    assert (dmat >= 0).all()
    assert (dmat == dmat.T).all()
    for i, j, k in triples:
        assert dmat[i, k] <= dmat[i, j] + dmat[j, k]
        assert (dmat[i, j] == 0) == (pts[i] == pts[j])


@pytest.mark.parametrize("space", [Z2, F2], ids=["Z2", "F2"])
def test_left_invariance(space):
    rng = random.Random(11)
    pts = _sample_points(space, rng, 64)
    for _ in range(200):
        g, p, q = (pts[rng.randrange(64)] for _ in range(3))
        if isinstance(space, LatticeSpace):
            gp = tuple(a + b for a, b in zip(g, p))
            gq = tuple(a + b for a, b in zip(g, q))
        else:
            gp, gq = word_multiply(g, p), word_multiply(g, q)
        assert space.distance(gp, gq) == space.distance(p, q)


@pytest.mark.parametrize("space", [Z2, N2, F2, T2], ids=["Z2", "N2", "F2", "T2"])
def test_pairwise_and_paired_match_scalar(space):
    rng = random.Random(3)
    pts = _sample_points(space, rng, 40)
    qts = _sample_points(space, rng, 40)
    mat = space.pairwise(pts, qts)
    vec = space.paired(pts, qts)
    for i in range(40):
        assert vec[i] == space.distance(pts[i], qts[i])
        for j in range(0, 40, 7):
            assert mat[i, j] == space.distance(pts[i], qts[j])


def _word_length_of_step(group, step):
    """d(p, q) as the oracle's word length of step(p, q) in ``group``."""
    lengths = word_metric_bfs_oracle(group, 8)  # |step(p, q)| <= |p| + |q| <= 8
    return lambda p, q: lengths[step(p, q)]


def _tree_path_through_meet():
    """d(p, q) from the oracle's depths: a tree path runs through the
    deepest common ancestor, the common prefix of p and q."""
    depths = word_metric_bfs_oracle(T2, 4)

    def d(p, q):
        k = 0
        while k < min(len(p), len(q)) and p[k] == q[k]:
            k += 1
        return depths[p] + depths[q] - 2 * depths[p[:k]]

    return d


def _lattice_step(p, q):
    return tuple(b - a for a, b in zip(p, q))


Z2_CUSTOM = LatticeSpace(2, generators=((1, 0), (1, 1)))
_ORACLE_CASES = {
    "Z2": (Z2, lambda: _word_length_of_step(Z2, _lattice_step)),
    # N^2's table is the restricted ambient ball: steps between its points
    # leave N^2, so their word lengths come from the ambient Z^2 table
    "N2": (N2, lambda: _word_length_of_step(Z2, _lattice_step)),
    "Z2-custom": (Z2_CUSTOM, lambda: _word_length_of_step(Z2_CUSTOM, _lattice_step)),
    "F2": (F2, lambda: _word_length_of_step(
        F2, lambda p, q: word_multiply(word_inverse(p), q))),
    "T2": (T2, _tree_path_through_meet),
}


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_kernels_match_bfs_oracle(name):
    space, oracle_distance = _ORACLE_CASES[name]
    pts = list(word_metric_bfs_oracle(space, 4))
    d = oracle_distance()
    expected = np.array([[d(p, q) for q in pts] for p in pts])
    n = len(pts)
    perm = np.random.default_rng(5).permutation(n)
    mat, vec = space.pairwise(pts, pts), space.paired(pts, [pts[k] for k in perm])
    assert mat.dtype == vec.dtype == (np.float64 if name == "Z2-custom" else np.int64)
    assert (mat == expected).all()
    assert (vec == expected[np.arange(n), perm]).all()
    assert (space.pairwise(pts, pts[:1]) == expected[:, :1]).all()
    dist = space._distances_at(pts)
    assert (dist(np.arange(n)[:, None], np.arange(n)) == expected).all()
    assert (dist(perm, slice(0, n)) == expected[perm, np.arange(n)]).all()


# lengths around the packing limits (20 letters, depth 62): points that
# share long prefixes, so the kernel must locate late disagreements
F2_NEAR_LIMIT = [""] + [
    w
    for stem in (("ab" * 11)[: n - 1] for n in (19, 20, 21))
    for w in [stem] + [stem + c for c in "aAbB" if is_reduced(stem + c)]
]
T2_NEAR_LIMIT = [()] + [
    v
    for stem in (tuple(k % 2 for k in range(n - 1)) for n in (61, 62, 63))
    for v in (stem, stem + (0,), stem + (1,))
]


@pytest.mark.parametrize(
    "space,pts,limit", [(F2, F2_NEAR_LIMIT, 20), (T2, T2_NEAR_LIMIT, 62)], ids=["F2", "T2"]
)
def test_prefix_kernel_matches_distance_at_packing_limit(space, pts, limit):
    within = [p for p in pts if len(p) <= limit]
    # the packed kernel serves `within` (int64); `pts` falls back to distance
    assert space.pairwise(within, within).dtype == np.int64
    assert space.paired(within, within).dtype == np.int64
    for sample in (within, pts):
        mat = space.pairwise(sample, sample)
        vec = space.paired(sample, sample[::-1])
        for i, p in enumerate(sample):
            assert vec[i] == space.distance(p, sample[-1 - i])
            for j, q in enumerate(sample):
                assert mat[i, j] == space.distance(p, q)


def _reduced_word(choices) -> str:
    """The reduced word whose k-th letter is choice k among the letters
    that do not cancel letter k - 1; equal choice prefixes give equal word
    prefixes of the same length."""
    w = ""
    for c in choices:
        options = [x for x in "aAbB" if x != w[-1:].swapcase()]
        w += options[c % len(options)]
    return w


@st.composite
def _near_points(draw, symbols, max_len):
    """Two lists of points of length <= max_len that branch off one drawn
    stem, so they share prefixes of every length up to the stem's; stems
    and shared prefixes lean long (hypothesis favours small draws)."""
    n = max_len - draw(st.integers(0, max_len))
    stem = draw(st.lists(symbols, min_size=n, max_size=n))

    def branch():
        cut = n - draw(st.integers(0, n))
        return stem[:cut] + draw(st.lists(symbols, max_size=max_len - cut))

    return [[branch() for _ in range(draw(st.integers(1, 8)))] for _ in range(2)]


@pytest.mark.parametrize(
    "space,symbols,limit,point",
    [
        (F2, st.integers(0, 3), 20, _reduced_word),
        (T2, st.integers(0, 1), 62, tuple),
    ],
    ids=["F2", "T2"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_prefix_kernel_matches_distance_property(space, symbols, limit, point, data):
    sides = data.draw(_near_points(symbols, limit + 1))
    ps, qs = ([point(s) for s in side] for side in sides)
    n = min(len(ps), len(qs))
    packed = all(len(p) <= limit for p in ps + qs)
    mat, vec = space.pairwise(ps, qs), space.paired(ps[:n], qs[:n])
    if packed:
        assert mat.dtype == vec.dtype == np.int64
    for i, p in enumerate(ps):
        for j, q in enumerate(qs):
            assert mat[i, j] == space.distance(p, q)
    for i in range(n):
        assert vec[i] == space.distance(ps[i], qs[i])


def _word_oracle(p, q):
    """d(p, q) = |p^-1 q|, by full free reduction."""
    return len(reduce_word(word_inverse(p) + q))


def _tree_oracle(v, w):
    """The steps from v and from w to their common ancestor, found by
    dropping the last bit of the deeper vertex."""
    steps = 0
    while v != w:
        if len(v) >= len(w):
            v = v[:-1]
        else:
            w = w[:-1]
        steps += 1
    return steps


@pytest.mark.parametrize(
    "space,symbols,max_len,point,oracle",
    [
        (F2, st.integers(0, 3), 30, _reduced_word, _word_oracle),
        (T2, st.integers(0, 1), 70, tuple, _tree_oracle),
    ],
    ids=["F2", "T2"],
)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_prefix_distance_matches_an_independent_oracle(space, symbols, max_len, point,
                                                       oracle, data):
    # past the packing limit the kernel falls back to distance itself,
    # so distance needs a reference of its own there
    sides = data.draw(_near_points(symbols, max_len))
    ps, qs = ([point(s) for s in side] for side in sides)
    expected = [[oracle(p, q) for q in qs] for p in ps]
    assert [[space.distance(p, q) for q in qs] for p in ps] == expected
    assert space.pairwise(ps, qs).tolist() == expected


@pytest.mark.parametrize("space", [Z1, Z2], ids=["Z1", "Z2"])
def test_lattice_kernels_exact_beyond_int64(space):
    coords = (0, 1, np.int64(-1), 2**62, -(2**62), 2**63, -(2**63) - 1)
    pts = list(itertools.product(coords, repeat=space.rank))
    mat = space.pairwise(pts, pts)
    vec = space.paired(pts, pts[::-1])
    for i, p in enumerate(pts):
        assert vec[i] == space.distance(p, pts[-1 - i])
        for j, q in enumerate(pts):
            assert mat[i, j] == space.distance(p, q)


# entries that some model rejects: floats, numpy bools, strings, None, and
# integers off the tree's bits or beyond int64
_ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.5, 1.0, True, np.int64(1), np.bool_(True), "1", None, 2**70]),
)
_TUPLES = st.lists(_ENTRIES, max_size=3).map(tuple)
# near misses: a negative N^2 coordinate, a list, a 2 among tree bits
_PAIRS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_SUSPECTS = {
    "Z2": (Z2, st.one_of(_TUPLES, _PAIRS, _PAIRS.map(list))),
    "N2": (N2, st.one_of(_TUPLES, _PAIRS)),
    "F2": (F2, st.one_of(st.text("aAbBx\n", max_size=5), _TUPLES)),
    "T2": (T2, st.one_of(_TUPLES, st.lists(st.integers(0, 2), max_size=3).map(tuple))),
}


def _first_rejection(space, points):
    for p in points:
        try:
            space.validate(p)
        except ModelMismatch as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("name", list(_SUSPECTS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_reject_what_validate_rejects(name, data):
    space, point = _SUSPECTS[name]
    ps = data.draw(st.lists(point, max_size=4))
    qs = data.draw(st.lists(point, min_size=len(ps), max_size=len(ps)))
    expected = _first_rejection(space, ps + qs)  # ps before qs
    for kernel in (space.pairwise, space.paired):
        if expected is None:
            kernel(ps, qs)
        else:
            with pytest.raises(ModelMismatch) as exc:
                kernel(ps, qs)
            assert str(exc.value) == expected


# ---------------------------------------------------------------------------
# model validation and custom generating sets


def test_validate_rejects_model_mismatch():
    with pytest.raises(ModelMismatch):
        Z2.distance((0, 0), (1, 2, 3))
    with pytest.raises(ModelMismatch):
        Z2.validate((0.5, 1))
    with pytest.raises(ModelMismatch):
        N1.validate((-1,))
    with pytest.raises(ModelMismatch):
        F2.validate("aA")
    with pytest.raises(ModelMismatch):
        T2.validate((0, 2))
    with pytest.raises(ModelMismatch):
        T2.validate((0.0, 1.0))


def test_tree_validate_takes_numpy_bits_as_ints():
    # numpy bits past depth 63 would wrap in the vertex's integer code
    p = (np.int64(1),) * 70
    q = p[:-1] + (np.int64(0),)
    assert T2.validate(q) == (1,) * 69 + (0,)
    assert T2.distance(p, q) == 2


def test_n_lattice_is_restriction_of_z_metric():
    assert N2.distance((0, 0), (2, 3)) == Z2.distance((0, 0), (2, 3)) == 5
    ball = N2.closed_ball((0, 0), 2)
    assert all(min(p) >= 0 for p in ball)
    assert len(ball) == 6  # l1 ball of radius 2 meeting the quadrant


def test_custom_lattice_generators_match_bfs():
    sp = LatticeSpace(1, generators=((2,), (3,)))
    oracle = word_metric_bfs_oracle(sp, 4)
    for p, d in oracle.items():
        assert sp.distance((0,), p) == d
    assert sp.distance((0,), (1,)) == 2  # 3 - 2


def test_custom_free_group_generators_match_bfs():
    sp = FreeGroupSpace(generators=("ab", "a"))
    oracle = word_metric_bfs_oracle(sp, 4)
    for p, d in oracle.items():
        assert sp.distance("", p) == d
    assert sp.distance("", "b") == 2  # b = a^-1 (ab)


@pytest.mark.parametrize("space, ps", [
    (LatticeSpace(2, generators=((2, 1), (1, 1))),
     [(x, y) for x in range(-2, 3) for y in range(-2, 3)]),
    (FreeGroupSpace(generators=("ab", "b")), F2.closed_ball("", 2)),
], ids=["Z2-custom", "F2-custom"])
def test_custom_generator_kernel_stops_at_its_limit(space, ps):
    # the word-length search stops at the limit and reads inf past it
    at = np.arange(len(ps))
    limited = space._distances_at(ps, limit=2)(at[:, None], at)
    assert max(space._word_length_search[0].values()) == 2
    exact = replace(space).pairwise(ps, ps)  # a fresh search
    assert exact.max() > 2
    assert np.array_equal(limited, np.where(exact <= 2, exact, np.inf))
    # distance keeps no limit, and grows the stopped search
    assert space.distance(ps[0], ps[-1]) == exact[0, -1]


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40))
def test_lattice_distance_is_l1(x0, y0, x1, y1):
    assert Z2.distance((x0, y0), (x1, y1)) == abs(x1 - x0) + abs(y1 - y0)
