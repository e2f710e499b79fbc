"""The coarselab benchmark workloads, with their checks and digests.

A workload has ``prepare(seed)``, which builds every input -- and all
randomness -- from the seed, and ``run_pass(inputs, v)``, which computes
the workload's verdicts one after another through ``v``, a :class:`Pass`.
A verdict is one certifier call, witness sweep or config run: ``v``
times the program call, then (outside the timing) checks the result
independently and digests its scale table.  A wrong value, an exception
or a digest that differs from the committed reference is a failure.

Only orbit-dynamics has random inputs.  Every workload computes its
verdicts in one fixed order: the allocator and cache state one verdict
leaves behind changes the speed of the next, so a seed-dependent order
would add run-to-run spread.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace
from typing import Callable

import numpy as np

from coarselab import actions, cli, coarse, cone, odometer, spaces

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

F2 = spaces.FreeGroupSpace()
T2 = spaces.BinaryTreeSpace()
Z1 = spaces.LatticeSpace(1)

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


# ---------------------------------------------------------------------------
# verdict recording


@dataclass
class Verdict:
    vid: str
    latency_s: float
    cpu_s: float
    digest: str
    problems: list[str]
    seeded: bool  # its inputs are drawn from the seed


@dataclass
class Pass:
    """One pass over a workload's verdicts.

    ``workdir`` is where config runs may write; ``recorder`` (a
    :class:`spans.Recorder`, or None when untraced) is told which
    verdict is running.  ``files`` collects per-file output digests.
    """

    workdir: Path
    recorder: object = None
    records: list[Verdict] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    def __call__(self, vid: str, run: Callable, check: Callable, seeded: bool = False):
        """Time ``run()``, then ``check(result) -> (table, problems)``;
        return the result (None if the program raised)."""
        if self.recorder is not None:
            self.recorder.verdict = vid
        error = None
        c0, t0 = process_time(), perf_counter()
        try:
            result = run()
        except Exception as exc:  # the failure is recorded; the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = perf_counter(), process_time()
        if self.recorder is not None:
            self.recorder.verdict = ""
        table, problems = b"", [error] if error else []
        if error is None:
            try:
                table, problems = check(result)
            except Exception as exc:  # a malformed result fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if isinstance(table, str):
            table = table.encode()
        self.records.append(
            Verdict(vid, t1 - t0, c1 - c0, hashlib.sha256(table).hexdigest(), problems, seeded)
        )
        return result

    def count(self, name: str, n: int):
        if self.recorder is not None:
            self.recorder.count(name, n)

    @property
    def wall_s(self) -> float:
        return sum(r.latency_s for r in self.records)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.records)


def _ints(*arrays) -> bytes:
    """Canonical bytes of integer-valued matrices, independent of dtype."""
    return b"".join(
        repr(np.shape(a)).encode() + np.ascontiguousarray(a, dtype="<i8").tobytes()
        for a in arrays
    )


def _floats(*arrays) -> bytes:
    return b"".join(
        repr(np.shape(a)).encode() + np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in arrays
    )


def _report_table(report) -> str:
    return report.to_csv() + json.dumps(report.to_json_dict(), sort_keys=True)


def reduced_words(length: int) -> list[str]:
    """Every reduced word over aAbB of the given length, in sorted order;
    generated here, independently of coarselab."""
    words = [""]
    for _ in range(length):
        words = [w + c for w in words for c in "aAbB" if not w or c != _INVERSE[w[-1]]]
    return sorted(words)


def _reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# kernel-sweep: acceptance criteria 4, 1 and 2

C4_RADII = (1, 2, 3, 4, 5, 6)


def tree_vertices(max_index: int = 9) -> list[tuple[int, ...]]:
    """The root plus every bit tuple of length 1 .. max_index + 1."""
    out: list[tuple[int, ...]] = [()]
    for n in range(1, max_index + 2):
        out.extend(itertools.product((0, 1), repeat=n))
    return out


def check_translation_profile(report, h: str):
    """Criterion 4: S(R) <= R + 2|h| at every R = 1..6."""
    problems = []
    if [row.scale for row in report.rows] != [float(r) for r in C4_RADII]:
        problems.append(f"scales {[row.scale for row in report.rows]}")
    for row in report.rows:
        if not row.value <= row.scale + 2 * len(h):
            problems.append(f"S({row.scale}) = {row.value} exceeds R + 2|h|")
    if report.verdict != coarse.CERTIFIED:
        problems.append(f"verdict {report.verdict!r}")
    return _report_table(report), problems


def check_odometer_lipschitz(result):
    """Criterion 1: d(1x, 1y) <= d(x, y) + 2 on all vertex pairs."""
    before, after = (np.asarray(m) for m in result)
    problems = []
    if before.shape != (2047, 2047) or after.shape != before.shape:
        problems.append(f"shapes {before.shape} {after.shape}")
    else:
        bad = int(np.sum(after > before + 2))
        if bad:
            problems.append(f"{bad} pairs with d(1x,1y) > d(x,y) + 2")
    return _ints(before, after), problems


def check_gromov_table(result, depths: np.ndarray):
    """Criterion 2: 2 (x|y) = |x| + |y| - d(x, y) on all vertex pairs."""
    prefix, dmat = (np.asarray(m) for m in result)
    problems = []
    if prefix.shape != dmat.shape or prefix.shape != (len(depths), len(depths)):
        problems.append(f"shapes {prefix.shape} {dmat.shape}")
    elif not (depths[:, None] + depths[None, :] - dmat == 2 * prefix).all():
        problems.append("Gromov table disagrees with the distance formula")
    return _ints(prefix, dmat), problems


def prepare_kernel_sweep(seed: int):
    translations = [w for n in range(4) for w in reduced_words(n)]
    vertices = tree_vertices()
    depths = np.array([len(v) for v in vertices], dtype=np.int64)
    return SimpleNamespace(translations=translations, vertices=vertices, depths=depths)


def _odometer_pairs(vertices):
    stepped = [odometer.odometer_step(v) for v in vertices]
    return T2.pairwise(vertices, vertices), T2.pairwise(stepped, stepped)


def run_kernel_sweep(inp, v: Pass):
    # the two largest matrices come first, so the peak memory of a pass
    # does not depend on the seed's order of the translations
    v("c1/odometer-lipschitz", lambda: _odometer_pairs(inp.vertices), check_odometer_lipschitz)
    v(
        "c2/gromov-table",
        lambda: (odometer.gromov_product_table(inp.vertices),
                 T2.pairwise(inp.vertices, inp.vertices)),
        lambda r: check_gromov_table(r, inp.depths),
    )
    for h in inp.translations:
        v(
            f"c4/{h or 'e'}",
            lambda: coarse.bornologous_profile(actions.right_translation(h), F2, F2, C4_RADII, 6),
            lambda rep: check_translation_profile(rep, h),
        )


# ---------------------------------------------------------------------------
# orbit-dynamics: acceptance criteria 6, 10, 7, 3 and 8

BRACKET_BATCHES = 10  # 1000 seeded pairs, 100 per paired lookup
WORDS_PER_SWEEP = 10  # 100 seeded word pairs, 12 witnesses each


def _rotate360(p):
    node, t = p
    return p if t == 0.0 else (str((int(node) + 1) % 360), t)


def check_rotation(result):
    """Criterion 6: the rotation at height 10 is certified, with every
    orbit point inside B(x0, L + 1) and at least 50 returns."""
    cert, space = result
    problems = []
    if cert.status != "coarse-fixed-point-certificate":
        problems.append(f"status {cert.status!r}")
    elif not (cert.max_displacement < cert.concluded_radius and len(cert.return_times) >= 50):
        problems.append(f"max displacement {cert.max_displacement}, L + 1 = "
                        f"{cert.concluded_radius}, {len(cert.return_times)} returns")
    return json.dumps(cert.to_json_dict(space), sort_keys=True), problems


def check_translation_escape(verdict):
    """Criterion 6: translation is not recurrent and its escape profile
    increases strictly."""
    problems = []
    if verdict.status != "not-recurrent-at-horizon":
        problems.append(f"status {verdict.status!r}")
    else:
        times = [t for _, t in verdict.orbit_record.escape_profile]
        if not all(b > a for a, b in zip(times, times[1:])):
            problems.append("escape profile does not increase strictly")
    return json.dumps(verdict.to_json_dict(Z1), sort_keys=True), problems


def check_diagnostic(result):
    """Criterion 10: the diagnostic passes, decays with height and stays
    within 1.1 * 5 / t."""
    table = result[1]
    problems = []
    meas = [row.measured_separation for row in table.rows]
    if not table.all_passed():
        problems.append("diagnostic row failed")
    if meas != sorted(meas, reverse=True):
        problems.append(f"separations {meas} do not decay")
    problems += [f"separation {row.measured_separation} at t = {row.height}"
                 for row in table.rows if row.measured_separation > 5.0 / row.height * 1.1]
    return table.to_csv(), problems


def check_bracket(result):
    """Criterion 10: the vertical lower bound never exceeds the grid
    upper bound."""
    upper, lower = (np.asarray(a, dtype=float) for a in result)
    problems = []
    if upper.shape != lower.shape or not np.isfinite(upper).all():
        problems.append("upper bounds missing or infinite")
    elif not (lower <= upper + 1e-12).all():
        problems.append(f"{int(np.sum(lower > upper + 1e-12))} pairs with lower > upper")
    return _floats(upper, lower), problems


def check_refinement(upper2, upper):
    """Criterion 10: refining the height grid only tightens the bound."""
    upper2 = np.asarray(upper2, dtype=float)
    problems = []
    if upper is None or upper2.shape != np.shape(upper):
        problems.append("no matching unrefined bounds")
    elif not (upper2 <= np.asarray(upper) + 1e-9).all():
        problems.append("refinement loosened the upper bound")
    return _floats(upper2), problems


def check_orbit_law(result):
    """Criterion 7: d(m.0, n.0) = 3|m - n| on the whole orbit."""
    record, dmat = result
    dmat = np.asarray(dmat)
    gaps = np.abs(np.arange(1001)[:, None] - np.arange(1001)[None, :])
    problems = []
    if dmat.shape != gaps.shape or not (dmat == 3 * gaps).all():
        problems.append("orbit distances are not 3|m-n|")
    return json.dumps(record.to_json_dict(Z1), sort_keys=True).encode() + _ints(dmat), problems


def check_orbit_lipschitz(report):
    """Criterion 7: the Lipschitz report certifies slope 3, tight at
    every gap."""
    problems = []
    if report.verdict != coarse.CERTIFIED or report.affine_slope != 3.0:
        problems.append(f"verdict {report.verdict!r}, slope {report.affine_slope}")
    if len(report.rows) != 1000 or any(row.value != 3 * row.scale for row in report.rows):
        problems.append("rows are not exactly 3 * gap")
    return _report_table(report), problems


def check_witnesses(result, xb, yb):
    """Criterion 3: n . x agrees with y on the first N+1 bits, N = 1..12;
    re-checked here by integer addition."""
    x_val = sum(b << k for k, b in enumerate(xb))
    y_val = sum(b << k for k, b in enumerate(yb))
    problems = []
    if len(result) != 12:
        problems.append(f"{len(result)} witnesses, want 12")
    for n_agree, (n, moved) in enumerate(result, start=1):
        mask = (1 << (n_agree + 1)) - 1
        if n < 0 or (x_val + n) & mask != y_val & mask or moved[: n_agree + 1] != yb[: n_agree + 1]:
            problems.append(f"witness {n} fails at N = {n_agree}")
    return "\n".join(f"{n} {''.join(map(str, m))}" for n, m in result), problems


def check_witness_sweeps(result, pairs):
    if len(result) != len(pairs):
        return "", [f"{len(result)} sweeps for {len(pairs)} word pairs"]
    checked = [check_witnesses(r, xb, yb) for r, (xb, yb) in zip(result, pairs)]
    return "\n\n".join(t for t, _ in checked), [p for _, probs in checked for p in probs]


def check_boundary(result, words):
    """Criterion 8: the returned generator moves every extension of each
    prefix at the reported index; re-checked here by free reduction."""
    problems = []
    if len(result) != len(words):
        problems.append(f"{len(result)} witnesses for {len(words)} prefixes")
    for w, (g, idx, ok) in zip(words, result):
        gw = _reduce(g + w)
        if not (ok and 0 <= idx < len(w) and idx < len(gw) and gw[idx] != w[idx]
                and gw[-1] == w[-1]):
            problems.append(f"witness ({g}, {idx}) fails on {w}")
            break
    return "".join(f"{g}{idx}\n" for g, idx, _ in result), problems


def prepare_orbit_dynamics(seed: int):
    rng = random.Random(seed)
    # pair endpoints as fractions of the grid-point list, which the pass builds
    pairs = [(rng.random(), rng.random()) for _ in range(100 * BRACKET_BATCHES)]
    words = [
        (tuple(rng.randrange(2) for _ in range(24)), tuple(rng.randrange(2) for _ in range(24)))
        for _ in range(100)
    ]
    prefixes: dict[str, list[str]] = {}
    for w in reduced_words(10):
        prefixes.setdefault(w[:2], []).append(w)
    return SimpleNamespace(pairs=pairs, words=words, prefixes=sorted(prefixes.items()))


def _rotation_certificate():
    nodes, edges = cone.cycle_graph(360)
    grid = cone.ConeGrid.build(nodes, edges, cone.geometric_heights(23, extra=[10.0]))
    space = cone.ConeSpace(grid, cone.LambdaFunction.linear())
    action = actions.iterated_map_action(_rotate360, "rotate", isometry=True)
    x0 = ("0", 10.0)
    return actions.detect_coarse_fixed_point_isometry(
        action, space, x0, spaces.BallSpec(x0, 12.0), 10_000
    ), space


def _translation_escape():
    shift = actions.iterated_map_action(actions.lattice_translation((1,)), "+1", isometry=True)
    return actions.detect_coarse_fixed_point_isometry(
        shift, Z1, (0,), spaces.BallSpec((0,), 12.0), 2000
    )


def _cone_diagnostic():
    lam = cone.LambdaFunction.linear()
    nodes, edges = cone.cycle_graph(16)
    grid = cone.ConeGrid.build(
        nodes, edges, cone.geometric_heights(1100, extra=[10.0, 100.0, 1000.0])
    )
    table = cone.compactification_diagnostic(grid, lam, 5.0, [10.0, 100.0, 1000.0])
    return (grid, table, cone.ConeSpace(grid, lam),
            cone.ConeSpace(grid.refine_heights(), lam), grid.grid_points())


def _orbit_law(action):
    record = actions.orbit(action, Z1, (0,), 1000)
    seq = sorted(record.points, key=dict(zip(record.points, record.first_times)).get)
    return record, Z1.pairwise(seq, seq)


def _witness_sweep(xb, yb):
    x, y = odometer.BoundaryWord(xb), odometer.BoundaryWord(yb)
    out = []
    for n_agree in range(1, 13):
        n = odometer.minimality_witness(x, y, n_agree)
        out.append((n, odometer.odometer_power(x, n).bits))
    return out


def _boundary_sweep(words):
    out = []
    for w in words:
        g, idx = actions.boundary_moves_witness(w)
        out.append((g, idx, actions.verify_boundary_witness(w, g, idx)))
    return out


def run_orbit_dynamics(inp, v: Pass):
    v("c6/rotation", _rotation_certificate, check_rotation)
    v("c6/translation", _translation_escape, check_translation_escape)

    diag = v("c10/diagnostic", _cone_diagnostic, check_diagnostic)
    _, _, space, refined, pts = diag if diag else (None,) * 5

    def endpoints(k):
        batch = inp.pairs[100 * k: 100 * (k + 1)]
        return ([pts[int(a * len(pts))] for a, _ in batch],
                [pts[int(b * len(pts))] for _, b in batch])

    def bracket(k):
        ps, qs = endpoints(k)
        return space.paired(ps, qs), [cone.cone_distance_lower(p, q) for p, q in zip(ps, qs)]

    uppers = []
    for k in range(BRACKET_BATCHES):
        res = v(f"c10/bracket/{k}", lambda: bracket(k), check_bracket, seeded=True)
        uppers.append(res[0] if res else None)
    for k in range(BRACKET_BATCHES):
        v(f"c10/refine/{k}", lambda: refined.paired(*endpoints(k)),
          lambda u2: check_refinement(u2, uppers[k]), seeded=True)

    action3 = actions.iterated_map_action(actions.lattice_translation((3,)), "+3", isometry=True)
    v("c7/orbit-law", lambda: _orbit_law(action3), check_orbit_law)
    v("c7/lipschitz", lambda: actions.isometry_orbit_lipschitz(action3, Z1, (0,), 1000),
      check_orbit_lipschitz)

    for k in range(0, len(inp.words), WORDS_PER_SWEEP):
        pairs = inp.words[k: k + WORDS_PER_SWEEP]
        v(f"c3/{k // WORDS_PER_SWEEP}", lambda: [_witness_sweep(xb, yb) for xb, yb in pairs],
          lambda r: check_witness_sweeps(r, pairs), seeded=True)

    for head, words in inp.prefixes:
        v(f"c8/{head}", lambda: _boundary_sweep(words), lambda r: check_boundary(r, words))


# ---------------------------------------------------------------------------
# config-batch: every configs/*.cfg through cli.run


def file_digest(path: Path) -> str:
    """SHA-256 of an output file; a manifest is digested without its
    wall-clock field."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_clock_seconds", None)
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def check_config_run(result, v: Pass):
    """The run wrote its manifest and every output it lists, raised no
    error and refuted nothing (every sample config passes)."""
    manifest, out = result
    problems = []
    if manifest.error is not None or manifest.verdicts.get("refuted"):
        problems.append(f"error {manifest.error!r}, verdicts {manifest.verdicts}")
    written = sorted(p.name for p in out.iterdir())
    missing = set(manifest.outputs) | {"manifest.json"}
    missing -= set(written)
    if missing:
        problems.append(f"missing outputs {sorted(missing)}")
    digests = {name: file_digest(out / name) for name in written}
    v.files.update({f"{out.name}/{name}": d for name, d in digests.items()})
    v.count("cli.bytes_written", sum((out / name).stat().st_size for name in written))
    return json.dumps(digests, sort_keys=True), problems


def prepare_config_batch(seed: int):
    paths = sorted(Path("configs").glob("*.cfg"))
    if not paths:
        raise FileNotFoundError("no configs/*.cfg in the checkout")
    return SimpleNamespace(paths=paths)


def run_config_batch(inp, v: Pass):
    out_root = Path(tempfile.mkdtemp(prefix="config-batch-", dir=v.workdir))
    try:
        for path in inp.paths:
            out = out_root / path.stem
            v(f"config/{path.stem}", lambda: (cli.run(cli.load_config(path), out), out),
              lambda r: check_config_run(r, v))
    finally:
        shutil.rmtree(out_root)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    run_pass: Callable
    min_passes: int  # each verdict's latency is its fastest over the run's passes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel-sweep", prepare_kernel_sweep, run_kernel_sweep, 3),  # 55 verdicts
        Workload("orbit-dynamics", prepare_orbit_dynamics, run_orbit_dynamics, 3),  # 47 verdicts
        Workload("config-batch", prepare_config_batch, run_config_batch, 3),  # 9 config runs
    )
}


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def reference_problems(record: Verdict, reference: dict, seed: int) -> list[str]:
    """Digest comparison: every verdict whose inputs do not depend on the
    seed, and at the reference seed every verdict."""
    if record.seeded and seed != reference["seed"]:
        return []
    want = reference["verdicts"].get(record.vid)
    if want is None:
        return ["no reference digest"]
    if want != record.digest:
        return [f"digest {record.digest[:16]} differs from reference {want[:16]}"]
    return []
