import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import coarse
from coarselab.actions import (
    ActionSpec,
    IsometryViolation,
    boundary_moves_witness,
    detect_coarse_fixed_point_finite,
    detect_coarse_fixed_point_isometry,
    free_group_left_translation_action,
    isometry_orbit_lipschitz,
    iterated_map_action,
    lattice_translation,
    lattice_translation_action,
    orbit,
    verify_boundary_witness,
    verify_coarse_action,
)
from coarselab.coarse import CERTIFIED, REFUTED
from coarselab.cone import ConeGrid, ConeSpace, LambdaFunction, cycle_graph, geometric_heights
from coarselab.odometer import odometer_step
from coarselab.spaces import (
    BallSpec,
    BinaryTreeSpace,
    FreeGroupSpace,
    LatticeSpace,
    enumerate_reduced_words,
    word_multiply,
)

Z1 = LatticeSpace(1)
Z2 = LatticeSpace(2)
F2 = FreeGroupSpace()
T2 = BinaryTreeSpace()

plus_one = iterated_map_action(lambda p: (p[0] + 1,), "+1", isometry=True)


def small_circle_space(n=60, height=4.0):
    nodes, edges = cycle_graph(n)
    grid = ConeGrid.build(nodes, edges, geometric_heights(2 * height, extra=[height]))
    return ConeSpace(grid, LambdaFunction.linear()), n, height


def rotation_action(n, height, step=1):
    def rot(p):
        v, t = p
        return p if t == 0.0 else (str((int(v) + step) % n), t)

    return iterated_map_action(rot, f"rotate+{step}", isometry=True)


# ---------------------------------------------------------------------------
# orbits


def test_orbit_of_shift_on_z():
    rec = orbit(plus_one, Z1, (0,), 5)
    assert set(rec.points) == {(n,) for n in range(6)}
    assert rec.max_displacement == 5
    assert rec.first_times == (0, 1, 2, 3, 4, 5)


def test_orbit_of_odometer_from_root():
    rec = orbit(iterated_map_action(odometer_step), T2, (), 4)
    assert set(rec.points) == {(), (0,), (1,), (0, 1), (1, 1)}
    assert rec.max_displacement == 2


def test_orbit_of_lattice_translation_action():
    rec = orbit(lattice_translation_action(Z2), Z2, (0, 0), 2)
    assert len(rec.points) == 13  # l1 ball of radius 2
    assert set(rec.points) == set(Z2.closed_ball((0, 0), 2))
    assert rec.max_displacement == 2


def test_escape_profile_of_translation_is_identity():
    rec = orbit(plus_one, Z1, (0,), 50)
    assert rec.escape_profile == tuple((r, r) for r in range(51))


def test_orbit_rejects_negative_horizon():
    with pytest.raises(ValueError):
        orbit(plus_one, Z1, (0,), -1)


@given(st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=50)
def test_semigroup_law_on_orbits(m, n):
    # (m + n) . x equals m . (n . x) for the iterated map
    step = plus_one.step
    x = (3,)
    p = x
    for _ in range(n):
        p = step(p)
    q = p
    for _ in range(m):
        q = step(q)
    r = x
    for _ in range(m + n):
        r = step(r)
    assert q == r


def test_commutativity_check_rejects_bad_abelian_spec():
    swap = lambda p: (p[1], p[0])
    shift = lambda p: (p[0] + 1, p[1])
    bad = ActionSpec("Z^2", (("swap", swap), ("shift", shift)))
    with pytest.raises(ValueError, match="commute"):
        orbit(bad, Z2, (0, 0), 2)


# ---------------------------------------------------------------------------
# coarse-action verification


def test_free_left_translation_action_certified_isometric():
    ver = verify_coarse_action(
        free_group_left_translation_action(), F2, [1, 2, 4], 4, domain_radius=8
    )
    assert ver.verdict == CERTIFIED
    for gen in "aAbB":
        rep = ver.report(gen, "bornologous")
        for row in rep.rows:
            assert row.value == row.scale  # S(R) = R for isometries


def test_verify_coarse_action_enumerates_each_ball_once():
    # four generators, each with a profile over B(e, 3) and a properness
    # table over B(e, 5): the source sides are built once, not per map
    coarse._profile_sample.cache_clear()
    coarse._properness_domain.cache_clear()
    radii, enumerate_ball = Counter(), FreeGroupSpace.closed_ball

    def counted(space, center, r):
        radii[r] += 1
        return enumerate_ball(space, center, r)

    with mock.patch.object(FreeGroupSpace, "closed_ball", counted):
        ver = verify_coarse_action(
            free_group_left_translation_action(), F2, [1, 2], 3, domain_radius=5
        )
    assert ver.verdict == CERTIFIED and len(ver.per_generator) == 4
    assert radii == {1: 1, 3: 1, 5: 1}  # B(e, 1) is the commutativity sample


def test_odometer_action_verification_at_depth_9():
    ver = verify_coarse_action(
        iterated_map_action(odometer_step), T2, [1, 2, 4], 9
    )
    assert ver.verdict == CERTIFIED
    rep = ver.report("step", "bornologous")
    for row in rep.rows:
        assert row.value <= row.scale + 2


def test_constant_action_properness_refuted():
    const = iterated_map_action(lambda p: (0,), "const")
    ver = verify_coarse_action(const, Z1, [2], 4)
    assert ver.verdict == REFUTED
    assert ver.report("const", "proper").verdict == REFUTED


def test_verification_csv_has_generator_prefixes():
    ver = verify_coarse_action(lattice_translation_action(Z1), Z1, [1, 2], 4)
    csv_text = ver.to_csv()
    assert "+e1:bornologous" in csv_text
    assert "-e1:proper" in csv_text


# ---------------------------------------------------------------------------
# finite-ball fixed-point detection


def test_five_cycle_detected():
    act = iterated_map_action(lambda p: ((p[0] + 1) % 5,))
    res = detect_coarse_fixed_point_finite(act, Z1, (0,), 1000)
    assert res.status == "cycle-found"
    assert (res.repeat_time, res.first_time) == (5, 0)
    assert set(res.orbit_points) == {(n,) for n in range(5)}
    assert res.verified


def test_eventually_periodic_tail():
    act = iterated_map_action(lambda p: (p[0] + 1,) if p[0] < 7 else (4,))
    res = detect_coarse_fixed_point_finite(act, Z1, (0,), 100)
    assert res.status == "cycle-found"
    assert res.first_time == 4 and res.repeat_time == 8
    assert res.verified


def test_translation_is_inconclusive():
    res = detect_coarse_fixed_point_finite(plus_one, Z1, (0,), 1000)
    assert res.status == "inconclusive-at-horizon"


def test_odometer_orbit_points_all_distinct():
    res = detect_coarse_fixed_point_finite(
        iterated_map_action(odometer_step), T2, (), 1000
    )
    assert res.status == "inconclusive-at-horizon"
    assert len(set(res.orbit_points)) == 1001


def test_finite_detector_rejects_grid_models():
    space, n, height = small_circle_space(12, 2.0)
    with pytest.raises(ValueError, match="exact point equality"):
        detect_coarse_fixed_point_finite(
            rotation_action(12, 2.0), space, ("0", 2.0), 10
        )


# ---------------------------------------------------------------------------
# isometric recurrence certificates


def test_rotation_certificate_is_sound():
    space, n, height = small_circle_space(60, 4.0)
    act = rotation_action(n, height)
    x0 = ("0", height)
    res = detect_coarse_fixed_point_isometry(
        act, space, x0, BallSpec(x0, 5.0), 2000, min_returns=30
    )
    assert res.status == "coarse-fixed-point-certificate"
    # every orbit point lies in the concluded ball
    assert res.max_displacement < res.concluded_radius
    # each entry time lands its center back in D
    seq = [x0]
    step = act.step
    for _ in range(2000):
        seq.append(step(seq[-1]))
    for c, k, t in zip(res.centers, res.center_first_times, res.entry_times):
        assert seq[k] == c
        assert space.distance(x0, seq[k + t]) <= 5.0
    # L recomputation from the stored centers and times matches
    recomputed = max(
        max(space.distance(x0, seq[k + a]) for a in range(t + 1))
        for k, t in zip(res.center_first_times, res.entry_times)
    )
    assert recomputed == res.bound_constant
    # the net covers K with open unit balls
    for p in res.net_points:
        assert min(space.distance(p, c) for c in res.centers) < 1.0


def test_identity_action_certificate_is_trivial():
    ident = iterated_map_action(lambda p: p, isometry=True)
    res = detect_coarse_fixed_point_isometry(
        ident, Z1, (0,), BallSpec((0,), 2.0), 200, min_returns=50
    )
    assert res.status == "coarse-fixed-point-certificate"
    assert res.bound_constant == 0.0
    assert res.max_displacement == 0.0
    assert res.concluded_radius == 1.0


def test_translation_not_recurrent_with_increasing_escape():
    res = detect_coarse_fixed_point_isometry(
        plus_one, Z1, (0,), BallSpec((0,), 5.0), 1000
    )
    assert res.status == "not-recurrent-at-horizon"
    assert res.returns_observed == 5
    times = [t for _, t in res.orbit_record.escape_profile]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_isometry_flag_is_required_and_checked():
    with pytest.raises(ValueError, match="isometric"):
        detect_coarse_fixed_point_isometry(
            iterated_map_action(lambda p: p), Z1, (0,), BallSpec((0,), 2.0), 10
        )
    doubling = iterated_map_action(lambda p: (2 * p[0] + 1,), isometry=True)
    with pytest.raises(IsometryViolation):
        detect_coarse_fixed_point_isometry(
            doubling, Z1, (0,), BallSpec((0,), 3.0), 500
        )


def test_x0_must_lie_in_domain():
    with pytest.raises(ValueError, match="lie in"):
        detect_coarse_fixed_point_isometry(
            plus_one, Z1, (10,), BallSpec((0,), 2.0), 10
        )


# ---------------------------------------------------------------------------
# isometry orbit Lipschitz bound


def test_translation_by_three_has_exact_slope():
    act = iterated_map_action(lattice_translation((3,)), isometry=True)
    rep = isometry_orbit_lipschitz(act, Z1, (0,), 100)
    assert rep.verdict == CERTIFIED
    assert rep.affine_slope == 3.0
    for row in rep.rows:
        assert row.value == 3 * row.scale


def test_identity_orbit_is_a_point():
    ident = iterated_map_action(lambda p: p, isometry=True)
    rep = isometry_orbit_lipschitz(ident, Z1, (5,), 50)
    assert rep.verdict == CERTIFIED
    assert rep.affine_slope == 0.0
    assert all(row.value == 0 for row in rep.rows)


def test_rotation_orbit_bound_has_slack():
    space, n, height = small_circle_space(24, 2.0)
    act = rotation_action(24, 2.0)
    rep = isometry_orbit_lipschitz(act, space, ("0", 2.0), 60)
    assert rep.verdict == CERTIFIED
    scale = rep.affine_slope
    assert any(row.value < scale * row.scale for row in rep.rows)


def test_non_isometry_is_refuted_with_witness():
    jump = iterated_map_action(
        lambda p: (p[0] + 1,) if p[0] < 5 else (p[0] + 10,), isometry=True
    )
    rep = isometry_orbit_lipschitz(jump, Z1, (0,), 20)
    assert rep.verdict == REFUTED
    assert rep.counterexample is not None


# ---------------------------------------------------------------------------
# boundary directions


def test_boundary_witness_examples():
    assert boundary_moves_witness("ba") == ("a", 0)
    assert boundary_moves_witness("aaa") == ("b", 0)
    assert boundary_moves_witness("AA") == ("b", 0)


def test_boundary_witness_rejects_bad_prefixes():
    with pytest.raises(ValueError):
        boundary_moves_witness("")
    with pytest.raises(ValueError):
        boundary_moves_witness("aA")


@pytest.mark.parametrize("prefix, g, index", [
    ("aA", "b", 0),  # unreduced: b . aA keeps the tail letter and moves index 0
    ("Aa", "a", 0),
    ("", "a", 0),
    (("a", "b"), "b", 0),
    ("ab", "x", 0),
    ("ab", "aA", 0),
    ("ab", "b", 0.0),
])
def test_verify_boundary_witness_rejects_bad_input(prefix, g, index):
    assert verify_boundary_witness(prefix, g, index) is False


def test_boundary_witness_exhaustive_short_prefixes():
    # lengths 1..9 here; the acceptance sweep covers the 4 * 3^9 length-10 set
    for n in range(1, 10):
        for w in enumerate_reduced_words(n):
            g, idx = boundary_moves_witness(w)
            assert verify_boundary_witness(w, g, idx), (w, g, idx)


def test_boundary_witness_pins_all_extensions():
    # spot-check the guarantee on explicit extensions of a tricky prefix
    w = "AAb"
    g, idx = boundary_moves_witness(w)
    for ext in ("a", "b", "B"):
        z = w + ext if not w.endswith(ext.swapcase()) else w + "a"
        gz = word_multiply(g, z)
        assert gz[idx] != z[idx]
