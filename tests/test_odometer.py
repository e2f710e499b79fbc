import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import odometer
from coarselab.odometer import (
    BoundaryWord,
    boundary_distance,
    density_experiment,
    gromov_product,
    gromov_product_table,
    minimality_witness,
    odometer_power,
    odometer_step,
    odometer_step_boundary,
)
from coarselab.spaces import BinaryTreeSpace, ModelMismatch, tree_vertex_value

T2 = BinaryTreeSpace()

bits = st.lists(st.integers(0, 1), min_size=0, max_size=20).map(tuple)
words = st.lists(st.integers(0, 1), min_size=1, max_size=20).map(
    lambda b: BoundaryWord(tuple(b))
)


def all_vertices(max_depth):
    yield ()
    for n in range(1, max_depth + 1):
        yield from itertools.product((0, 1), repeat=n)


# ---------------------------------------------------------------------------
# vertex odometer


def test_step_examples():
    assert odometer_step(()) == (0,)
    # bits are LSB first: the all-ones vertex of depth 2 promotes to depth 3
    assert odometer_step((1, 1)) == (0, 0, 1)
    # value 1 -> value 2 at depth 2
    assert odometer_step((1, 0)) == (0, 1)


def test_value_law_exhaustive_depth_12():
    for v in all_vertices(12):
        w = odometer_step(v)
        if v == ():
            assert w == (0,)
        else:
            assert tree_vertex_value(w) == tree_vertex_value(v) + 1
            expected_len = len(v) + (1 if all(b == 1 for b in v) else 0)
            assert len(w) == expected_len


@given(bits)
def test_value_law_sampled_to_depth_20(v):
    if v:
        assert tree_vertex_value(odometer_step(v)) == tree_vertex_value(v) + 1


def test_step_is_at_most_two_to_one_to_depth_10():
    # Not injective: the all-ones vertex of depth n and (1, 1, ..., 0) of
    # depth n+1 share the image (0, ..., 0, 1).  Preimages still have size
    # at most 2, which is what the properness of the map actually needs.
    preimages: dict = {}
    for v in all_vertices(10):
        preimages.setdefault(odometer_step(v), []).append(v)
    for w, vs in preimages.items():
        assert len(vs) <= 2
        if len(vs) == 2:
            ones, longer = sorted(vs, key=len)
            assert ones == (1,) * len(ones)
            assert longer == (1,) * len(ones) + (0,)
            assert w == (0,) * len(ones) + (1,)


# ---------------------------------------------------------------------------
# boundary odometer


def test_boundary_step_examples():
    assert odometer_step_boundary(BoundaryWord((0, 0, 0, 0))).bits == (1, 0, 0, 0)
    rolled = odometer_step_boundary(BoundaryWord((1, 1, 1, 1)))
    assert rolled.bits == (0, 0, 0, 0)
    assert rolled.overflowed
    assert odometer_step_boundary(BoundaryWord((0, 1))).bits == (1, 1)


def test_boundary_step_preserves_precision_and_flag_sticks():
    z = odometer_step_boundary(BoundaryWord((1, 1), overflowed=True))
    assert z.precision == 2
    assert z.overflowed


@given(words, st.integers(0, 300))
@settings(max_examples=100)
def test_power_matches_iterated_steps(z, n):
    w = z
    for _ in range(n):
        w = odometer_step_boundary(w)
    assert odometer_power(z, n) == w


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        odometer_power(BoundaryWord((0,)), -1)


# ---------------------------------------------------------------------------
# Gromov products and the boundary metric


def test_gromov_product_examples():
    # two vertices (LSB first): common prefix 2, distance formula agrees
    x, y = (1, 1, 0), (1, 1)
    r = gromov_product(x, y)
    assert r.value == 2 and r.exact
    assert r.value == (
        T2.distance(x, ()) + T2.distance(y, ()) - T2.distance(x, y)
    ) // 2
    assert gromov_product((0, 1, 1), (0, 1, 1)).value == 3
    assert gromov_product(BoundaryWord((0, 0, 0)), BoundaryWord((1, 0, 0))).value == 0


def test_gromov_product_exactness_flags():
    # identical truncations: exhausted, lower bound only
    r = gromov_product(BoundaryWord((1, 0)), BoundaryWord((1, 0)))
    assert r.value == 2 and not r.exact
    # a full vertex caps the product: exact even when all its bits agree
    r2 = gromov_product((1, 0), BoundaryWord((1, 0, 1)))
    assert r2.value == 2 and r2.exact
    r3 = gromov_product(BoundaryWord((1, 0)), BoundaryWord((1, 0, 1)))
    assert r3.value == 2 and not r3.exact


@given(bits, bits)
def test_gromov_product_is_common_prefix(u, v):
    r = gromov_product(u, v).value
    assert u[:r] == v[:r]
    if r < min(len(u), len(v)):
        assert u[r] != v[r]


def test_gromov_products_reject_non_integer_bits():
    with pytest.raises(ModelMismatch):
        gromov_product((0.0, 1.0), (0, 1))
    with pytest.raises(ModelMismatch):
        gromov_product_table([(0.0, 1.0), (0, 1)])


def test_gromov_product_table_matches_scalar():
    cases = [
        list(all_vertices(6)),
        [],
        [()],
        # unequal depths: shorter vertices are prefixes of longer ones
        [(0, 1, 1, 0, 1), (), (0, 1), (1,), (0, 1, 1), (0, 1, 1, 0, 1, 1, 1), (1, 0)],
        # common prefixes longer than a byte counts
        [(1,) * 300, (1,) * 299 + (0,), (1,) * 257],
    ]
    expected = [[[gromov_product(p, q).value for q in pts] for p in pts] for pts in cases]
    # 127 vertices in blocks of 1, 3 and 7 rows (the last one ragged) or one
    for block in (1, 127 * 3, 1000, odometer.BLOCK_PAIRS):
        with mock.patch.object(odometer, "BLOCK_PAIRS", block):
            tables = [gromov_product_table(pts) for pts in cases]
        for pts, table, values in zip(cases, tables, expected):
            assert table.shape == (len(pts), len(pts)) and table.dtype == np.int64
            assert table.tolist() == values


def test_boundary_distance_examples():
    n4 = BoundaryWord((1, 0, 1, 1))
    same = boundary_distance(n4, n4)
    assert same.value == Fraction(1, 16) and not same.exact  # "<= 2^-N"
    d0 = boundary_distance(BoundaryWord((0, 1)), BoundaryWord((1, 1)))
    assert d0.value == 1 and d0.exact
    d2 = boundary_distance(BoundaryWord((1, 0, 0)), BoundaryWord((1, 0, 1)))
    assert d2.value == Fraction(1, 4) and d2.exact


def test_boundary_distance_precision_mismatch():
    with pytest.raises(ValueError, match="precision"):
        boundary_distance(BoundaryWord((0,)), BoundaryWord((0, 1)))


@given(st.integers(2, 16), st.data())
def test_boundary_metric_is_ultrametric(precision, data):
    draw = lambda: BoundaryWord(
        tuple(data.draw(st.integers(0, 1)) for _ in range(precision))
    )
    x, y, z = draw(), draw(), draw()
    dxz = boundary_distance(x, z).value
    dxy = boundary_distance(x, y).value
    dyz = boundary_distance(y, z).value
    assert dxz <= max(dxy, dyz)


# ---------------------------------------------------------------------------
# minimality witnesses and density


def test_minimality_witness_all_ones_to_zeros():
    x = BoundaryWord((1,) * 8)
    y = BoundaryWord((0,) * 8)
    n = minimality_witness(x, y, 3)
    assert n == 1  # a = 16 - 15 = 1, b = 0
    assert odometer_power(x, n).bits[:4] == (0, 0, 0, 0)


def test_minimality_witness_zeros_full_period():
    x = BoundaryWord((0,) * 10)
    n = minimality_witness(x, x, 4)
    assert n == 2**5  # a = 2^(N+1), b = 0: one full period of the bottom bits
    assert odometer_power(x, n).bits[:5] == (0,) * 5


def test_minimality_witness_mixed_example():
    x = BoundaryWord((1, 0, 0, 0))
    y = BoundaryWord((1, 1, 0, 0))
    n = minimality_witness(x, y, 2)
    assert n == 10  # a = 8 - 1 = 7, b = 3
    assert odometer_power(x, n).bits[:3] == (1, 1, 0)


def test_minimality_witness_insufficient_precision():
    with pytest.raises(ValueError, match="insufficient precision"):
        minimality_witness(BoundaryWord((1, 0)), BoundaryWord((1, 0)), 2)


def test_witness_verified_by_actual_iteration():
    rng = random.Random(2)
    for _ in range(5):
        x = BoundaryWord(tuple(rng.randrange(2) for _ in range(8)))
        y = BoundaryWord(tuple(rng.randrange(2) for _ in range(8)))
        n = minimality_witness(x, y, 4)
        z = x
        for _ in range(n):
            z = odometer_step_boundary(z)
        assert z.bits[:5] == y.bits[:5]


@given(st.data())
@settings(max_examples=60)
def test_witness_prefix_agreement(data):
    precision = data.draw(st.integers(6, 24))
    n_agree = data.draw(st.integers(1, precision - 1))
    mk = lambda: BoundaryWord(
        tuple(data.draw(st.integers(0, 1)) for _ in range(precision))
    )
    x, y = mk(), mk()
    n = minimality_witness(x, y, n_agree)
    moved = odometer_power(x, n)
    assert moved.bits[: n_agree + 1] == y.bits[: n_agree + 1]
    assert gromov_product(moved, y).value >= n_agree + 1


def test_density_experiment_half_epsilon():
    x = BoundaryWord((1, 0, 1, 1, 0, 1))
    y = BoundaryWord((0, 1, 1, 0, 0, 1))
    table = density_experiment(x, [y], [Fraction(1, 2)])
    row = table.rows[0]
    assert row.verified
    assert Fraction(1, 2) ** (-row.achieved_log2) <= Fraction(1, 4)


def test_density_experiment_period_returns_to_self():
    x = BoundaryWord((1,) * 8)
    table = density_experiment(x, [x], [Fraction(1, 8)])
    assert table.rows[0].witness == 2**4
    assert table.all_verified()


def test_density_experiment_seeded_batch():
    rng = random.Random(12)
    x = BoundaryWord(tuple(rng.randrange(2) for _ in range(16)))
    targets = [
        BoundaryWord(tuple(rng.randrange(2) for _ in range(16))) for _ in range(20)
    ]
    table = density_experiment(x, targets, [Fraction(1, 2**10)])
    assert table.all_verified()
    assert all(row.achieved_log2 <= -11 for row in table.rows)


def test_density_csv_shape_and_determinism():
    x = BoundaryWord((1, 0, 1, 0, 1, 0))
    y = BoundaryWord((0, 0, 1, 1, 0, 1))
    t1 = density_experiment(x, [y], [Fraction(1, 4)]).to_csv()
    t2 = density_experiment(x, [y], [Fraction(1, 4)]).to_csv()
    assert t1 == t2
    header, row = t1.strip().split("\n")
    assert header == "target,epsilon,witness_n_decimal,achieved_distance_log2"
    assert row.startswith("001101,1/4,")
