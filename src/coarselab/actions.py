"""Semigroup actions on space models.

Covers orbit computation with escape profiles, per-generator coarse-map
verification, two coarse-fixed-point detectors (eventual periodicity on
finite-ball spaces, and the recurrence construction for isometric
N-actions that assembles an explicit displacement bound L + 1), the
Lipschitz bound for isometry orbits, and the boundary witness showing
left translation moves every direction at infinity on the rank-2 free
group.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import add
from typing import Callable, Sequence

import numpy as np

from . import coarse
from .coarse import CERTIFIED, INCONCLUSIVE, REFUTED, CoarseReport, ScaleRow
from .spaces import (
    BallSpec,
    LatticeSpace,
    ModelMismatch,
    Space,
    is_reduced,
    word_multiply,
)


class IsometryViolation(RuntimeError):
    """The sampled isometry check failed mid-run; the recurrence
    construction is invalid for this action."""


@dataclass(frozen=True)
class ActionSpec:
    """A finitely generated semigroup acting through one point map per
    generator.

    ``semigroup`` is one of "N", "Z^k", "N^k", "F2" (k spelled out, e.g.
    "Z^2").  N-actions carry a single iterated map.  For the abelian
    tags, commutativity of the generator maps is verified on samples at
    orbit time rather than trusted.
    """

    semigroup: str
    generator_maps: tuple[tuple[str, Callable], ...]
    isometry: bool = False

    def __post_init__(self):
        if not self.generator_maps:
            raise ValueError("an action needs at least one generator map")
        if self.semigroup == "N" and len(self.generator_maps) != 1:
            raise ValueError("an N-action is a single iterated map")

    @property
    def is_abelian(self) -> bool:
        return self.semigroup == "N" or self.semigroup[0] in ("Z", "N")

    @property
    def step(self) -> Callable:
        if self.semigroup != "N":
            raise ValueError("step is defined for N-actions only")
        return self.generator_maps[0][1]


def iterated_map_action(fn: Callable, name: str = "step", isometry: bool = False) -> ActionSpec:
    return ActionSpec("N", ((name, fn),), isometry)


def lattice_translation_action(space: LatticeSpace) -> ActionSpec:
    """The lattice acting on itself by translation, one map per
    (semigroup) generator."""
    maps = []
    for i in range(space.rank):
        e = [0] * space.rank
        e[i] = 1
        step = tuple(e)
        maps.append((f"+e{i + 1}", lattice_translation(step)))
        if space.signed:
            neg = tuple(-c for c in step)
            maps.append((f"-e{i + 1}", lattice_translation(neg)))
    tag = f"{'Z' if space.signed else 'N'}^{space.rank}"
    return ActionSpec(tag, tuple(maps), isometry=True)


# The translation maps carry their translation as ``translation``: the
# vector g of p -> p + g, or the words (g, h) of x -> g x h.  The
# certifiers move a whole ball by it at once (``Space._translated``).


def lattice_translation(g: tuple[int, ...]) -> Callable:
    """Point map p -> p + g; a point of another length than g is a
    ``ModelMismatch``."""
    g = tuple(g)
    f = lambda p: tuple(map(add, p, g)) if len(p) == len(g) else _length_mismatch(g, p)
    f.translation = g
    return f


def _length_mismatch(g, p):
    raise ModelMismatch(f"translation by a vector of length {len(g)} "
                        f"applied to a point of length {len(p)}: {p!r}")


def left_translation(g: str) -> Callable:
    """Point map x -> g x on reduced words."""
    f = lambda p: word_multiply(g, p)
    f.translation = (g, "")
    return f


def right_translation(h: str) -> Callable:
    """Point map x -> x h on reduced words."""
    f = lambda p: word_multiply(p, h)
    f.translation = ("", h)
    return f


def free_group_left_translation_action() -> ActionSpec:
    maps = tuple((g, left_translation(g)) for g in "aAbB")
    return ActionSpec("F2", maps, isometry=True)


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitRecord:
    """Deduplicated orbit within a word-length horizon.

    ``escape_profile`` maps each integer radius r to the last time the
    orbit sits inside the ball of radius r around the base point (time
    is the iteration count for N-actions and the word-length shell
    otherwise).
    """

    base_point: object
    horizon: int
    points: tuple
    first_times: tuple[int, ...]
    max_displacement: float
    escape_profile: tuple[tuple[int, int], ...]

    def to_json_dict(self, space: Space) -> dict:
        return {
            "base_point": space.format_point(self.base_point),
            "horizon": self.horizon,
            "orbit_size": len(self.points),
            "points": [
                {"point": space.format_point(p), "first_time": t}
                for p, t in zip(self.points, self.first_times)
            ],
            "max_displacement": self.max_displacement,
            "escape_profile": [list(row) for row in self.escape_profile],
        }

    def escape_profile_csv(self) -> str:
        return coarse.rows_to_csv(self.escape_profile, header=("r", "last_time_within_r"))


def _escape_profile(disp_per_time: Sequence[float]) -> tuple[tuple[int, int], ...]:
    if len(disp_per_time) == 0:
        return ()
    buckets = [int(math.ceil(d)) for d in disp_per_time]
    top = max(buckets)
    last_at = {}
    for n, b in enumerate(buckets):
        last_at[b] = n
    profile = []
    running = -1
    for r in range(top + 1):
        if r in last_at:
            running = max(running, last_at[r])
        if running >= 0:
            profile.append((r, running))
    return tuple(profile)


def _orbit_record(x0, horizon: int, points: Sequence, first_times: Sequence[int],
                  disp: np.ndarray, disp_per_time: Sequence[float]) -> OrbitRecord:
    """``disp`` holds the displacement of each of ``points`` from ``x0``."""
    return OrbitRecord(
        base_point=x0,
        horizon=horizon,
        points=tuple(points),
        first_times=tuple(first_times),
        max_displacement=float(disp.max()),
        escape_profile=_escape_profile(disp_per_time),
    )


def _iterate_sequence(action: ActionSpec, space: Space, x0, horizon: int):
    """The iterates x0, f x0, ..., f^horizon x0 of an N-action, their
    distinct points in first-visit order, the first time of each, and
    for each time the index of its point among the distinct ones."""
    fn = action.step
    seq = [x0]
    p = x0
    for _ in range(horizon):
        p = fn(p)
        seq.append(space.validate(p))
    index: dict = {}
    first_times: list[int] = []
    for n, p in enumerate(seq):
        if p not in index:
            index[p] = len(first_times)
            first_times.append(n)
    return seq, list(index), first_times, np.array([index[p] for p in seq])


def _sample_commutativity(action: ActionSpec, space: Space, pts: Sequence):
    maps = action.generator_maps
    if not action.is_abelian or len(maps) < 2:
        return
    sample = list(pts)[:8]
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            _, f = maps[i]
            _, g = maps[j]
            for p in sample:
                if f(g(p)) != g(f(p)):
                    raise ValueError(
                        f"generator maps {maps[i][0]!r} and {maps[j][0]!r} "
                        f"do not commute at {space.format_point(p)}"
                    )


def orbit(action: ActionSpec, space: Space, x0, horizon: int) -> OrbitRecord:
    """All points g . x0 with |g| <= horizon, deduplicated, plus the
    escape profile."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    x0 = space.validate(x0)
    if action.semigroup == "N":
        _, points, first_times, ids = _iterate_sequence(action, space, x0, horizon)
        space._check_cap(len(points), "orbit enumeration")
        disp = coarse.distances_from(space, x0, points)
        return _orbit_record(x0, horizon, points, first_times, disp, disp[ids])

    _sample_commutativity(action, space, [x0])

    def step(p):
        return (space.validate(fn(p)) for _, fn in action.generator_maps)

    first = {x0: 0}
    shell = [x0]
    for _ in range(horizon):
        shell = space._next_sphere(shell, first, "orbit enumeration", step)
        if not shell:
            break
    points = sorted(first, key=lambda p: (first[p], space.format_point(p)))
    _sample_commutativity(action, space, points)
    first_times = [first[p] for p in points]
    disp = coarse.distances_from(space, x0, points)
    # per-shell minimum displacement drives the escape profile
    times = np.array(first_times)
    shell_min = [float(disp[times == m].min()) for m in range(first_times[-1] + 1)]
    return _orbit_record(x0, horizon, points, first_times, disp, shell_min)


# ---------------------------------------------------------------------------
# coarse-action verification


@dataclass(frozen=True)
class ActionVerification:
    per_generator: tuple[tuple[str, CoarseReport, CoarseReport], ...]
    verdict: str

    def report(self, generator: str, prop: str) -> CoarseReport:
        for name, borno, proper in self.per_generator:
            if name == generator:
                return borno if prop == "bornologous" else proper
        raise KeyError(generator)

    def to_csv(self) -> str:
        return coarse.rows_to_csv(
            (f"{name}:{row[0]}",) + row[1:]
            for name, borno, proper in self.per_generator
            for rep in (borno, proper)
            for row in rep.to_csv_rows()
        )

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "generators": {
                name: {
                    "bornologous": borno.to_json_dict(),
                    "proper": proper.to_json_dict(),
                }
                for name, borno, proper in self.per_generator
            },
        }


def verify_coarse_action(
    action: ActionSpec,
    space: Space,
    radii: Sequence[float] | None = None,
    sample_radius=None,
    domain_radius=None,
) -> ActionVerification:
    """Run the bornologous profile and the properness table for every
    generator map and aggregate the verdicts."""
    _sample_commutativity(
        action, space, space.closed_ball(space.basepoint, 1)
    )
    results = []
    for name, fn in action.generator_maps:
        borno = coarse.bornologous_profile(fn, space, space, radii, sample_radius)
        prop_radii = list(coarse.DEFAULT_RADII) if radii is None else sorted(radii)
        proper = coarse.properness_table(
            fn, space, space, prop_radii, domain_radius=domain_radius
        )
        results.append((name, borno, proper))
    verdicts = [rep.verdict for _, b, p in results for rep in (b, p)]
    if REFUTED in verdicts:
        overall = REFUTED
    elif all(v == CERTIFIED for v in verdicts):
        overall = CERTIFIED
    else:
        overall = INCONCLUSIVE
    return ActionVerification(per_generator=tuple(results), verdict=overall)


# ---------------------------------------------------------------------------
# coarse fixed points


@dataclass(frozen=True)
class CycleDetection:
    """Outcome of eventual-periodicity detection for an N-action on a
    finite-ball space."""

    status: str  # "cycle-found" | "inconclusive-at-horizon"
    repeat_time: int | None
    first_time: int | None
    orbit_points: tuple
    verified: bool

    def to_json_dict(self, space: Space) -> dict:
        return {
            "status": self.status,
            "repeat_time": self.repeat_time,
            "first_time": self.first_time,
            "orbit_size": len(self.orbit_points),
            "orbit": [space.format_point(p) for p in self.orbit_points],
            "verified": self.verified,
        }


def detect_coarse_fixed_point_finite(
    action: ActionSpec, space: Space, x0, horizon: int
) -> CycleDetection:
    """Look for m > n with m . x0 = n . x0; a hit traps the whole orbit
    in its first m points, which is re-verified exhaustively up to the
    horizon: no later iterate may be a new point."""
    if not space.integer_metric:
        raise ValueError("cycle detection needs exact point equality; "
                         "use the isometry detector for grid models")
    seq, uniq, _, ids = _iterate_sequence(action, space, space.validate(x0), horizon)
    repeats = np.flatnonzero(ids != np.arange(len(ids)))  # times that revisit a point
    if not len(repeats):
        return CycleDetection("inconclusive-at-horizon", None, None, tuple(seq), False)
    m = int(repeats[0])
    return CycleDetection("cycle-found", m, int(ids[m]), tuple(uniq[:m]), len(uniq) == m)


@dataclass(frozen=True)
class RecurrenceCertificate:
    """Witness data for a coarse fixed point of an isometric N-action.

    Built from a bounded set D that the orbit re-enters persistently:
    the orbit points K near D, a 1-net of K chosen greedily in
    first-entry order (the base point is center 0), each center's first
    positive entry time into D, and the displacement constant
    L = max over centers i and 0 <= a <= T_i of d(x0, a . x_i).
    Every computed orbit point must then lie within L + 1 of the base.
    """

    status: str
    base_point: object
    domain: BallSpec
    horizon: int
    return_times: tuple[int, ...]
    net_points: tuple
    centers: tuple
    center_first_times: tuple[int, ...]
    entry_times: tuple[int, ...]
    bound_constant: float
    concluded_radius: float
    max_displacement: float

    def to_json_dict(self, space: Space) -> dict:
        return {
            "status": self.status,
            "base_point": space.format_point(self.base_point),
            "domain": {
                "center": space.format_point(self.domain.center),
                "radius": self.domain.radius,
            },
            "horizon": self.horizon,
            "returns_observed": len(self.return_times),
            "return_times_head": list(self.return_times[:32]),
            "net_size": len(self.net_points),
            "centers": [space.format_point(c) for c in self.centers],
            "center_first_times": list(self.center_first_times),
            "entry_times": list(self.entry_times),
            "bound_constant": self.bound_constant,
            "concluded_radius": self.concluded_radius,
            "max_displacement": self.max_displacement,
        }


@dataclass(frozen=True)
class NotRecurrentVerdict:
    status: str
    returns_observed: int
    orbit_record: OrbitRecord
    reason: str = ""

    def to_json_dict(self, space: Space) -> dict:
        return {
            "status": self.status,
            "returns_observed": self.returns_observed,
            "reason": self.reason,
            "orbit": self.orbit_record.to_json_dict(space),
        }


def _check_isometry_on_sequence(space: Space, seq: Sequence, seed: int, samples: int = 64):
    if len(seq) < 3:
        return
    rng = random.Random(seed)
    ij = [(rng.randrange(len(seq) - 1), rng.randrange(len(seq) - 1)) for _ in range(samples)]
    before = space.paired([seq[i] for i, _ in ij], [seq[j] for _, j in ij])
    after = space.paired([seq[i + 1] for i, _ in ij], [seq[j + 1] for _, j in ij])
    tol = 0.0 if space.integer_metric else 1e-9
    for (i, j), b, a in zip(ij, before, after):
        if abs(a - b) > tol:
            raise IsometryViolation(  # scalar distances print as the model's own numbers
                f"d changed from {space.distance(seq[i], seq[j])} to "
                f"{space.distance(seq[i + 1], seq[j + 1])} under the generator at "
                f"({space.format_point(seq[i])}, {space.format_point(seq[j])})"
            )


def detect_coarse_fixed_point_isometry(
    action: ActionSpec,
    space: Space,
    x0,
    domain: BallSpec,
    horizon: int,
    min_returns: int = 50,
    seed: int = 0,
):
    """Recurrence-based coarse-fixed-point detector for isometric
    N-actions.

    Returns a :class:`RecurrenceCertificate` when the orbit re-enters
    ``domain`` at least ``min_returns`` times within the horizon, or a
    :class:`NotRecurrentVerdict` (with escape profile) otherwise.
    """
    if not action.isometry:
        raise ValueError("detector requires an action flagged as isometric")
    x0 = space.validate(x0)
    center = space.validate(domain.center)
    if space.distance(center, x0) > domain.radius:
        raise ValueError("x0 must lie in the bounded set D")

    seq, uniq, first_times, ids = _iterate_sequence(action, space, x0, horizon)
    _check_isometry_on_sequence(space, seq, seed)

    disp_uniq = coarse.distances_from(space, x0, uniq)
    disp = disp_uniq[ids]
    d_center_uniq = (
        disp_uniq if center == x0 else coarse.distances_from(space, center, uniq)
    )
    d_center = d_center_uniq[ids]

    return_times = tuple(int(n) for n in np.nonzero(d_center <= domain.radius)[0] if n >= 1)

    def _not_recurrent(reason: str) -> NotRecurrentVerdict:
        return NotRecurrentVerdict(
            status="not-recurrent-at-horizon",
            returns_observed=len(return_times),
            orbit_record=_orbit_record(x0, horizon, uniq, first_times, disp_uniq, disp),
            reason=reason,
        )

    if len(return_times) < min_returns:
        return _not_recurrent(
            f"only {len(return_times)} returns into D within the horizon "
            f"(needed {min_returns})"
        )

    # K = B(D, 1) intersected with the orbit.  With an integer metric,
    # d(., D) < 1 collapses to membership in D itself.
    if space.integer_metric:
        near = d_center_uniq <= domain.radius
    else:
        d_pts = space.closed_ball(center, domain.radius)
        near = space._near(uniq, d_pts, 1.0).any(axis=1)
    near_ids = np.flatnonzero(near)  # already in first-entry order
    k_points = [uniq[i] for i in near_ids]

    # greedy 1-net of K in first-entry order; x0 enters first (time 0).
    # Both K and the net read distances only against 1.
    close = space._near(k_points, k_points, 1.0)
    center_ids: list[int] = []
    for i in range(len(k_points)):
        if not close[i, center_ids].any():
            center_ids.append(i)
    centers = [k_points[i] for i in center_ids]
    if not close[:, center_ids].any(axis=1).all():
        raise AssertionError("greedy net failed to cover K")  # pragma: no cover

    returns_arr = np.array(return_times)
    center_first = []
    entry_times = []
    for i in center_ids:
        k_i = first_times[near_ids[i]]
        later = returns_arr[returns_arr > k_i]
        if len(later) == 0:
            return _not_recurrent(
                f"center {space.format_point(k_points[i])} has no forward entry into D "
                "within the horizon; recurrence data incomplete"
            )
        center_first.append(k_i)
        entry_times.append(int(later[0]) - k_i)

    bound = 0.0
    for k_i, t_i in zip(center_first, entry_times):
        bound = max(bound, float(disp[k_i : k_i + t_i + 1].max()))
    max_disp = float(disp.max())
    if not max_disp < bound + 1.0 + 1e-9:
        raise AssertionError(
            f"containment failed: max displacement {max_disp} is not below "
            f"L + 1 = {bound + 1.0}"
        )  # pragma: no cover

    # re-check the stored data: every T_i . x_i lies in D
    for k_i, t_i in zip(center_first, entry_times):
        if d_center[k_i + t_i] > domain.radius + 1e-12:
            raise AssertionError("entry time does not land in D")  # pragma: no cover

    return RecurrenceCertificate(
        status="coarse-fixed-point-certificate",
        base_point=x0,
        domain=BallSpec(center, domain.radius),
        horizon=horizon,
        return_times=return_times,
        net_points=tuple(k_points),
        centers=tuple(centers),
        center_first_times=tuple(center_first),
        entry_times=tuple(entry_times),
        bound_constant=bound,
        concluded_radius=bound + 1.0,
        max_displacement=max_disp,
    )


def isometry_orbit_lipschitz(
    action: ActionSpec, space: Space, x, horizon: int
) -> CoarseReport:
    """Check d(m . x, n . x) <= L |m - n| with L = d(1 . x, x) over all
    pairs up to the horizon; a violation is reported with its witness
    pair (it signals a non-isometry) rather than raised."""
    x = space.validate(x)
    seq, uniq, _, ids = _iterate_sequence(action, space, x, horizon)
    d_uniq = np.asarray(space.pairwise(uniq, uniq), dtype=float)
    dmat = d_uniq[np.ix_(ids, ids)]

    scale = float(dmat[0, 1]) if horizon >= 1 else 0.0
    tol = 0.0 if space.integer_metric else 1e-9
    rows = []
    worst_ratio = 0.0
    min_ratio = math.inf
    violation = None
    for gap in range(1, horizon + 1):
        diag = np.diagonal(dmat, offset=gap)
        val = float(diag.max())
        arg = int(np.argmax(diag))
        rows.append(
            ScaleRow(
                float(gap),
                val,
                space.format_point(seq[arg]),
                space.format_point(seq[arg + gap]),
            )
        )
        allowed = scale * gap
        if val > allowed + tol and violation is None:
            violation = (space.format_point(seq[arg]), space.format_point(seq[arg + gap]))
        if allowed > 0:
            worst_ratio = max(worst_ratio, val / allowed)
            min_ratio = min(min_ratio, float(diag.min()) / allowed)
    if not rows:
        rows.append(ScaleRow(0.0, 0.0))
        min_ratio = worst_ratio = 1.0
    return CoarseReport(
        prop="lipschitz",
        rows=tuple(rows),
        verdict=REFUTED if violation else CERTIFIED,
        affine_slope=scale,
        affine_offset=0.0,
        counterexample=violation,
        notes=f"ratio range [{min_ratio if min_ratio is not math.inf else 1.0}, {worst_ratio}]"
        f" against L|m-n| with L={scale}",
    )


# ---------------------------------------------------------------------------
# boundary directions of the free group


def boundary_moves_witness(prefix: str) -> tuple[str, int]:
    """For a reduced prefix pinning a direction at infinity, return a
    generator g and an index at which g . z and z differ for EVERY
    infinite reduced extension z of the prefix.

    Left multiplication by ``a`` settles every prefix that is not a
    power of a or its inverse; powers of a are moved by ``b`` at the
    head.  The guarantee is exact, not sampled.
    """
    if not prefix or not is_reduced(prefix):
        raise ValueError(f"prefix must be a nonempty reduced word: {prefix!r}")
    head = prefix[0]
    if head in ("b", "B"):
        return "a", 0
    run = len(prefix) - len(prefix.lstrip(head))
    if run == len(prefix):
        return "b", 0
    return ("a", run) if head == "a" else ("a", run - 1)


def verify_boundary_witness(prefix: str, g: str, index: int) -> bool:
    """Re-check a witness by explicit reduced multiplication on the
    prefix.

    Sound for every infinite extension because (i) both compared letters
    sit inside the finite reduced words, and (ii) g cancels only at the
    head, leaving the tail letter intact so extensions attach to g.prefix
    exactly as they attach to the prefix.  Both hold only for reduced
    words, so any other prefix or generator is rejected, never
    multiplied.
    """
    if not (prefix and is_reduced(prefix) and is_reduced(g) and isinstance(index, int)):
        return False
    gw = word_multiply(g, prefix)
    return (
        0 <= index < len(prefix)
        and index < len(gw)
        and gw[index] != prefix[index]
        and gw[-1] == prefix[-1]
    )
