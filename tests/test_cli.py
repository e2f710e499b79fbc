import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarselab import actions, cone
from coarselab.cli import (
    _EXPERIMENTS,
    ConfigError,
    _index,
    ExperimentConfig,
    build_action,
    load_config,
    main,
    parse_config_text,
    parse_point,
    run,
    space_from_config,
    validate,
)
from coarselab.spaces import (
    BinaryTreeSpace,
    CapExceeded,
    FreeGroupSpace,
    LatticeSpace,
    _number,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cfg_from(text: str, source="<memory>") -> ExperimentConfig:
    return ExperimentConfig(raw=parse_config_text(text), source=source)


# ---------------------------------------------------------------------------
# parsing


def test_parse_config_text():
    raw = parse_config_text("a = 1\n# comment\nb = x y  # trailing\n\n")
    assert raw == {"a": "1", "b": "x y"}
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words\n")


def test_number_literals():
    assert _number("2^-8") == Fraction(1, 256)
    assert _number("3/2") == Fraction(3, 2)
    assert _number("10") == 10
    assert _number("0.5") == Fraction(1, 2)


def test_parse_point_round_trips():
    z2 = LatticeSpace(2)
    assert parse_point(z2, "(3,-4)") == (3, -4)
    f2 = FreeGroupSpace()
    assert parse_point(f2, "e") == ""
    assert parse_point(f2, "abA") == "abA"
    t2 = BinaryTreeSpace()
    assert parse_point(t2, "*") == ()
    assert parse_point(t2, "110") == (1, 1, 0)


# ---------------------------------------------------------------------------
# validate


def test_validate_missing_horizon_names_the_field():
    cfg = cfg_from("experiment = orbit\nspace = Z^1\naction = translate\nby = 1\n")
    diags = validate(cfg)
    assert any("'horizon'" in d for d in diags)


def test_validate_insufficient_precision():
    cfg = cfg_from(
        "experiment = odometer-density\nprecision = 8\nepsilons = 2^-8\n"
    )
    diags = validate(cfg)
    assert any("insufficient precision" in d for d in diags)


def test_validate_well_formed_is_empty():
    for name in (
        "odometer_density.cfg",
        "verify_coarse_f2.cfg",
        "verify_coarse_z2.cfg",
        "orbit_z2.cfg",
        "orbit_odometer.cfg",
        "fixed_point_circle.cfg",
        "fixed_point_translation.cfg",
        "cone_diagnostic.cfg",
        "higson_defect.cfg",
    ):
        assert validate(load_config(CONFIGS / name)) == [], name


def test_validate_unknown_experiment():
    assert validate(cfg_from("experiment = guess\n"))
    assert validate(cfg_from("space = Z^1\n"))


# ---------------------------------------------------------------------------
# run


def test_density_run_writes_verified_csv(tmp_path):
    cfg = load_config(CONFIGS / "odometer_density.cfg")
    manifest = run(cfg, out_dir=tmp_path / "out")
    assert manifest.verdicts["refuted"] is False
    csv_text = (tmp_path / "out" / "density.csv").read_text()
    rows = csv_text.strip().split("\n")[1:]
    assert len(rows) == 10
    assert all(int(r.rsplit(",", 1)[1]) <= -9 for r in rows)
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert doc["error"] is None
    assert doc["config"]["seed"] == "7"


def test_rerun_reproduces_csv_bytes(tmp_path):
    cfg = load_config(CONFIGS / "odometer_density.cfg")
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "density.csv").read_bytes() == (
        tmp_path / "b" / "density.csv"
    ).read_bytes()


def test_verify_coarse_run(tmp_path):
    manifest = run(load_config(CONFIGS / "verify_coarse_f2.cfg"), tmp_path / "o")
    assert manifest.verdicts["action"] == "certified-at-scale"
    report = (tmp_path / "o" / "report.csv").read_text()
    assert "a:bornologous" in report and "B:proper" in report


def test_cone_diagnostic_run(tmp_path):
    manifest = run(load_config(CONFIGS / "cone_diagnostic.cfg"), tmp_path / "o")
    assert manifest.verdicts["diagnostic"] == "all-passed"
    rows = (tmp_path / "o" / "diagnostic.csv").read_text().strip().split("\n")
    assert len(rows) == 4  # header + 3 heights


def test_fixed_point_runs(tmp_path):
    m1 = run(load_config(CONFIGS / "fixed_point_circle.cfg"), tmp_path / "c")
    assert m1.verdicts["detector"] == "coarse-fixed-point-certificate"
    m2 = run(load_config(CONFIGS / "fixed_point_translation.cfg"), tmp_path / "t")
    assert m2.verdicts["detector"] == "not-recurrent-at-horizon"


def test_manifest_written_on_failure(tmp_path):
    cfg = cfg_from("experiment = orbit\nspace = Z^1\naction = translate\nby = 1\n",
                   source="broken.cfg")
    with pytest.raises(ConfigError, match="horizon"):
        run(cfg, out_dir=tmp_path / "o")
    doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert "horizon" in doc["error"]
    assert doc["outputs"] == []


def test_seed_and_cap_overrides(tmp_path):
    cfg = load_config(CONFIGS / "odometer_density.cfg")
    m = run(cfg, out_dir=tmp_path / "o", seed=99, cap=500_000)
    assert m.config["seed"] == "99"
    assert m.config["cap"] == "500000"


# ---------------------------------------------------------------------------
# CLI entry point


def test_main_run_exit_codes(tmp_path, capsys):
    code = main(["run", str(CONFIGS / "orbit_z2.cfg"), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "orbit_size: 85" in capsys.readouterr().out


def test_main_refuted_exit_code(tmp_path):
    bad = tmp_path / "const.cfg"
    bad.write_text(
        "experiment = verify-coarse\nspace = Z^1\naction = constant\n"
        "radii = 2\nsample_radius = 4\n"
    )
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_main_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", str(CONFIGS / "orbit_z2.cfg")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = orbit\nspace = Z^1\naction = translate\nby = 1\n")
    assert main(["validate", str(bad)]) == 2
    assert "horizon" in capsys.readouterr().out


def test_main_config_error_exit(tmp_path):
    missing = tmp_path / "nope.cfg"
    missing.write_text("experiment = verify-coarse\nspace = Marble\naction = x\n")
    assert main(["run", str(missing), "--out", str(tmp_path / "o")]) == 2


def test_main_batch(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "one.cfg").write_text(
        "experiment = orbit\nspace = Z^1\naction = translate\nby = 1\nhorizon = 4\n"
    )
    (batch / "two.cfg").write_text(
        "experiment = verify-coarse\nspace = Z^1\naction = constant\n"
        "radii = 2\nsample_radius = 4\n"
    )
    code = main(["batch", str(batch), "--out", str(tmp_path / "out")])
    assert code == 1  # worst of {0, 1}
    out = capsys.readouterr().out
    assert "one.cfg: exit 0" in out and "two.cfg: exit 1" in out
    assert main(["batch", str(tmp_path / "empty-missing")]) == 2


def _doubling_cfg(directory, monkeypatch):
    # 'translate' is declared isometric; made to double, it is not one
    monkeypatch.setattr(actions, "lattice_translation", lambda g: lambda p: (2 * p[0] + 1,))
    cfg = directory / "doubling.cfg"
    cfg.write_text(
        "experiment = fixed-point\nspace = Z^1\naction = translate\nby = 1\n"
        "horizon = 20\nmode = isometry\nball_radius = 4\n"
    )
    return cfg


def test_main_internal_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    cfg = _doubling_cfg(tmp_path, monkeypatch)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "internal check failed: IsometryViolation" in capsys.readouterr().out
    doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert doc["error"] == (
        "IsometryViolation: d changed from 4096 to 8192 under the generator at ((4095), (8191))"
    )
    assert doc["outputs"] == []


def test_main_batch_continues_after_internal_check_failure(tmp_path, capsys, monkeypatch):
    def failing_recheck(*args, **kwargs):
        raise AssertionError("certificate does not re-check")

    monkeypatch.setattr(actions, "verify_coarse_action", failing_recheck)
    batch = tmp_path / "batch"
    batch.mkdir()
    _doubling_cfg(batch, monkeypatch)
    (batch / "verify.cfg").write_text(
        "experiment = verify-coarse\nspace = Z^1\naction = self-translation\n"
    )
    (batch / "walk.cfg").write_text(
        "experiment = orbit\nspace = Z^1\naction = translate\nby = 1\nhorizon = 4\n"
    )
    code = main(["batch", str(batch), "--out", str(tmp_path / "out")])
    assert code == 3
    out = capsys.readouterr().out
    assert "doubling.cfg: internal check failed: IsometryViolation" in out
    assert "verify.cfg: internal check failed: AssertionError" in out
    assert "walk.cfg: exit 0" in out
    for stem in ("doubling", "verify", "walk"):
        assert (tmp_path / "out" / stem / "manifest.json").exists()
    doc = json.loads((tmp_path / "out" / "verify" / "manifest.json").read_text())
    assert doc["error"] == "AssertionError: certificate does not re-check"


def test_main_run_out_of_memory_exits_2_with_a_manifest(tmp_path, capsys, monkeypatch):
    # a run that cannot allocate is a resource error, not a refutation
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.08 GiB")

    monkeypatch.setattr(cone, "compactification_diagnostic", exhausted)
    out = tmp_path / "o"
    assert main(["run", str(CONFIGS / "cone_diagnostic.cfg"), "--out", str(out)]) == 2
    assert "error: MemoryError: Unable to allocate 4.08 GiB" in capsys.readouterr().out
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["error"] == "MemoryError: Unable to allocate 4.08 GiB"
    assert doc["outputs"] == []


def test_space_from_config():
    assert space_from_config(ExperimentConfig({"space": "Z^2"})).rank == 2
    assert space_from_config(ExperimentConfig({"space": "N^3"})).signed is False
    assert isinstance(space_from_config(ExperimentConfig({"space": "F2"})), FreeGroupSpace)
    assert isinstance(space_from_config(ExperimentConfig({"space": "tree"})), BinaryTreeSpace)
    sp = space_from_config(ExperimentConfig({"space": "Z^1", "generators": "2, 3"}))
    assert sp.moves == ((-3,), (-2,), (2,), (3,))
    with pytest.raises(ValueError, match="unknown space"):
        space_from_config(ExperimentConfig({"space": "hyperbolic"}))
    with pytest.raises(ValueError, match="space"):
        space_from_config(ExperimentConfig({}))


def _det(rows) -> int:
    """Leibniz's sum over permutations, in exact integers."""
    n = len(rows)
    return sum(
        (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        * math.prod(rows[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.lists(st.integers(-6, 6), min_size=k, max_size=k), max_size=5))))
def test_lattice_index_is_the_gcd_of_the_minors(case):
    rank, vectors = case
    minors = [_det(rows) for rows in itertools.combinations(vectors, rank)]
    assert _index(vectors, rank) == math.gcd(*minors)


def test_edge_list_cone_space():
    text = (CONFIGS / "cycle16.edges").read_text()
    space = space_from_config(ExperimentConfig(
        {"space": "cone", "base_edges": text, "height_max": "4"}
    ))
    assert len(space.grid.nodes) == 16
    assert space.distance(("0", 1.0), ("1", 1.0)) == 1.0


# ---------------------------------------------------------------------------
# failure configs

_ROTATE_TRIANGLE = (
    "experiment = fixed-point\nmode = isometry\nspace = cone\n"
    "base_edges = {dir}/triangle.edges\nheight_max = 4\naction = rotate\n"
    "start = x@1\nhorizon = 20\nball_radius = 4\n"
)

_TRANSLATE_CONE = (
    "experiment = orbit\nspace = cone\nbase_cycle = 8\naction = translate\nby = 1\nhorizon = 4\n"
)

_SIN_OFF_LATTICE = (
    "experiment = higson-defect\nspace = {}\nfunction = sin-coordinate\n"
    "entourage_radius = 1\nballs = 2\n"
)

_PROPER_TRANSLATION = (
    "experiment = verify-coarse\n{}\nradii = 1, 2, 3, 4\nsample_radius = 4\ndomain_radius = 8\n"
)

_ORBIT_ON = "experiment = orbit\nspace = {}\naction = translate\nby = 1\nhorizon = 4\n"

_RADII_10_400 = (
    "experiment = verify-coarse\nspace = Z^1\naction = translate\nby = 1\nradii = 10^400\n"
)

_CONE_DIAGNOSTIC = (
    "experiment = cone-diagnostic\nbase_cycle = 8\n{}\nentourage_radius = 1\nheights = 2\n"
)

_CONE_DIAGNOSTIC_CFG = (CONFIGS / "cone_diagnostic.cfg").read_text()

_BASE_CYCLE_2 = (
    "experiment = cone-diagnostic\nbase_cycle = 2\nentourage_radius = 1\nheights = 2\n"
)

_BASE_CYCLE_0 = _BASE_CYCLE_2.replace("base_cycle = 2", "base_cycle = 0")

_ROTATE_ORBIT = (
    "experiment = orbit\nspace = cone\nbase_cycle = 8\nheight_max = 2^4\naction = rotate\n"
    "start = 0@4\nhorizon = 8\n"
)

_BALLS_1_0 = (
    "experiment = higson-defect\nspace = Z^1\nfunction = sin-log\n"
    "entourage_radius = 1\nballs = 2, 1/0\n"
)

_Z3_SMALL_CAP = (
    "experiment = verify-coarse\nspace = Z^3\naction = self-translation\n"
    "sample_radius = 2\ndomain_radius = 3\ncap = 30\n"
)

_NEGATIVE_BALL = (
    "experiment = higson-defect\nspace = Z^1\nfunction = sin-log\n"
    "entourage_radius = 1\nballs = -1, 2\n"
)

_NO_PAIR_ENTOURAGE = (
    "experiment = higson-defect\nspace = Z^1\nfunction = sin-log\n"
    "entourage_radius = 0\nballs = 2\n"
)

_LATTICE_GENERATORS = (
    "experiment = orbit\nspace = Z^2\ngenerators = {}\naction = translate\nby = 1, 0\n"
    "horizon = 3\n"
)

# case -> (command, config text with {dir} for the test directory, raw
# bytes, or None for a config file that does not exist; exit status,
# manifest written?, text the command prints); the exit-0 rows are
# proper maps that the properness certifier once refuted
FAILURE_CONFIGS = {
    "missing-config-run": ("run", None, 2, False, "error: cannot read config"),
    "missing-config-validate": ("validate", None, 2, False, "error: cannot read config"),
    "binary-config-validate": ("validate", b"\xd0\xcf\x11", 2, False, "codec can't decode"),
    "missing-base-edges-run": (
        "run",
        "experiment = cone-diagnostic\nbase_edges = {dir}/nowhere.edges\n"
        "entourage_radius = 1\nheights = 2\n",
        2, True, "error: ValueError: cannot read base_edges",
    ),
    "rotate-off-cycle-validate": (
        "validate", _ROTATE_TRIANGLE, 2, False,
        "diagnostic: action 'rotate' needs a cone built from 'base_cycle'",
    ),
    "rotate-off-cycle-run": (
        "run", _ROTATE_TRIANGLE, 2, True,
        "error: action 'rotate' needs a cone built from 'base_cycle'",
    ),
    "translate-on-cone-run": (
        "run", _TRANSLATE_CONE, 2, True,
        "error: translate acts on a lattice space, not cone",
    ),
    "left-multiply-on-lattice-run": (
        "run",
        "experiment = orbit\nspace = Z^1\naction = left-multiply\nby = a\nhorizon = 4\n",
        2, True, "error: left-multiply acts on a free-group space, not lattice",
    ),
    "translate-wrong-rank-run": (
        "run",
        "experiment = orbit\nspace = Z^2\naction = translate\nby = 1\nhorizon = 4\n",
        2, True, "error: ModelMismatch: expected integer tuple of length 2",
    ),
    "multiply-unreduced-run": (
        "run",
        "experiment = orbit\nspace = F2\naction = right-multiply\nby = aA\nhorizon = 4\n",
        2, True, "error: ModelMismatch: expected a reduced word",
    ),
    "base-cycle-2-run": ("run", _BASE_CYCLE_2, 2, True, "the base graph must be simple"),
    # an empty base graph is a config error, not an IndexError in the certifier
    "base-cycle-0-validate": (
        "validate", _BASE_CYCLE_0, 2, False, "diagnostic: ValueError: base graph has no nodes",
    ),
    "base-cycle-0-run": (
        "run", _BASE_CYCLE_0, 2, True, "error: ValueError: base graph has no nodes",
    ),
    # a negative slack would fail every row, a zero separation included
    "slack-minus-2-validate": (
        "validate", _CONE_DIAGNOSTIC.format("slack = -2"), 2, False,
        "diagnostic: ValueError: slack must be finite and >= 0",
    ),
    "slack-minus-2-run": (
        "run", _CONE_DIAGNOSTIC.format("slack = -2"), 2, True,
        "error: ValueError: slack must be finite and >= 0",
    ),
    "zero-edge-length-run": (
        "run",
        "experiment = cone-diagnostic\nbase_cycle = 8\nedge_length = 0\n"
        "entourage_radius = 1\nheights = 2\n",
        2, True, "lengths must be positive",
    ),
    "sin-coordinate-on-tree-validate": (
        "validate", _SIN_OFF_LATTICE.format("tree"), 2, False,
        "diagnostic: function 'sin-coordinate' needs a lattice space",
    ),
    "sin-coordinate-on-f2-run": (
        "run", _SIN_OFF_LATTICE.format("F2"), 2, True,
        "error: function 'sin-coordinate' needs a lattice space",
    ),
    "translate-z1-by-3-proper-run": (
        "run", _PROPER_TRANSLATION.format("space = Z^1\naction = translate\nby = 3"),
        0, True, "action: certified-at-scale",
    ),
    "right-multiply-aba-proper-run": (
        "run", _PROPER_TRANSLATION.format("space = F2\naction = right-multiply\nby = aba"),
        0, True, "action: certified-at-scale",
    ),
    "unknown-space-validate": (
        "validate", _ORBIT_ON.format("Q^2"), 2, False,
        "diagnostic: unknown space model 'Q^2'",
    ),
    "lattice-rank-x-validate": (
        "validate", _ORBIT_ON.format("Z^x"), 2, False,
        "diagnostic: lattice rank must be a positive integer: 'Z^x'",
    ),
    "lattice-rank-0-validate": (
        "validate", _ORBIT_ON.format("Z^0"), 2, False,
        "diagnostic: lattice rank must be a positive integer: 'Z^0'",
    ),
    "repeated-radii-run": (
        "run", "experiment = verify-coarse\nspace = F2\naction = right-multiply\nby = a\n"
        "radii = 2, 2\nsample_radius = 3\n",
        2, True, "error: radii must be distinct (radii = 2, 2)",
    ),
    "balls-1-0-validate": (
        "validate", _BALLS_1_0, 2, False,
        "diagnostic: invalid numeric list for 'balls': Fraction(1, 0)",
    ),
    "balls-1-0-run": (
        "run", _BALLS_1_0, 2, True, "error: invalid numeric list for 'balls': Fraction(1, 0)",
    ),
    "negative-ball-validate": (
        "validate", _NEGATIVE_BALL, 2, False,
        "diagnostic: ball radii must be >= 0 (balls = -1, 2)",
    ),
    "negative-ball-run": (
        "run", _NEGATIVE_BALL, 2, True, "error: ball radii must be >= 0 (balls = -1, 2)",
    ),
    # E_0 holds only the diagonal, so every row reads 0.0 with no witness
    # (the run once crashed in argmax on the empty pair list)
    "no-pair-entourage-validate": ("validate", _NO_PAIR_ENTOURAGE, 0, False, "ok"),
    "no-pair-entourage-run": (
        "run", _NO_PAIR_ENTOURAGE, 0, True, "defect_at_largest_ball: 0.0",
    ),
    "no-balls-run": (
        "run", _NEGATIVE_BALL.replace("-1, 2", ""), 2, True,
        "error: ball radii must be non-empty (balls = )",
    ),
    "heights-not-a-number-validate": (
        "validate",
        "experiment = cone-diagnostic\nbase_cycle = 8\nentourage_radius = 1\nheights = 2, x\n",
        2, False, "diagnostic: invalid numeric list for 'heights'",
    ),
    "epsilons-1-0-run": (
        "run", "experiment = odometer-density\nprecision = 8\nepsilons = 1/0\n",
        2, True, "error: invalid numeric list for 'epsilons': Fraction(1, 0)",
    ),
    "radii-1-0-validate": (
        "validate",
        "experiment = verify-coarse\nspace = Z^1\naction = translate\nby = 1\nradii = 1/0\n",
        2, False, "diagnostic: invalid numeric list for 'radii': Fraction(1, 0)",
    ),
    "window-inside-largest-ball-validate": (
        "validate", _NEGATIVE_BALL.replace("-1, 2", "5\nwindow_radius = 2"), 2, False,
        "diagnostic: window radius is smaller than the largest ball "
        "(window_radius = 2, balls = 5)",
    ),
    "f2-default-domain-over-cap-validate": (
        "validate", "experiment = verify-coarse\nspace = F2\naction = right-multiply\nby = ab\n",
        2, False,
        "diagnostic: domain ball B(e, 20) would hold 6973568801 points, over the cap of 1000000",
    ),
    "tree-sample-over-cap-validate": (
        "validate", "experiment = verify-coarse\nspace = tree\naction = odometer\n"
        "sample_radius = 20\ndomain_radius = 4\n",
        2, False,
        "diagnostic: sample ball B(*, 20) would hold 2097151 points, over the cap of 1000000",
    ),
    # the standard Z^k and N^k predict their balls as F2 and the tree do
    "z3-domain-over-cap-validate": (
        "validate", _Z3_SMALL_CAP, 2, False,
        "diagnostic: domain ball B((0,0,0), 3) would hold 63 points, over the cap of 30",
    ),
    "z3-domain-over-cap-run": (
        "run", _Z3_SMALL_CAP, 2, True,
        "error: domain ball B((0,0,0), 3) would hold 63 points, over the cap of 30",
    ),
    # N^2's search counts the ambient Z^2 ball: 13 points, of which N^2 holds 6
    "n2-sample-over-cap-run": (
        "run", "experiment = verify-coarse\nspace = N^2\naction = self-translation\n"
        "sample_radius = 2\ndomain_radius = 1\ncap = 12\n",
        2, True, "error: sample ball B((0,0), 2) would hold 13 points, over the cap of 12",
    ),
    "window-not-a-number-validate": (
        "validate", _NEGATIVE_BALL.replace("-1, 2", "5\nwindow_radius = x"), 2, False,
        "diagnostic: invalid numeric value for 'window_radius'",
    ),
    # validate reads each config as run does, so it rejects what run rejects
    "unknown-function-validate": (
        "validate", _NEGATIVE_BALL.replace("sin-log", "bogus"), 2, False,
        "diagnostic: unknown function 'bogus'; choose from "
        "['constant', 'sin-coordinate', 'sin-log']",
    ),
    "unknown-action-validate": (
        "validate", _ORBIT_ON.format("Z^1").replace("translate", "bogus"), 2, False,
        "diagnostic: unknown action 'bogus'",
    ),
    "unknown-mode-validate": (
        "validate", _ORBIT_ON.format("Z^1").replace("orbit", "fixed-point") + "mode = bogus\n",
        2, False, "diagnostic: unknown fixed-point mode 'bogus'",
    ),
    "unknown-lam-validate": (
        "validate", _CONE_DIAGNOSTIC.format("lam = bogus"), 2, False,
        "diagnostic: unknown lambda choice 'bogus'",
    ),
    "translate-z2-by-word-validate": (
        "validate", _ORBIT_ON.format("Z^2").replace("by = 1", "by = ab"), 2, False,
        "diagnostic: ValueError: invalid literal for int() with base 10: 'ab'",
    ),
    "translate-on-cone-validate": (
        "validate", _TRANSLATE_CONE, 2, False,
        "diagnostic: translate acts on a lattice space, not cone",
    ),
    "base-cycle-2-validate": (
        "validate", _BASE_CYCLE_2, 2, False, "the base graph must be simple",
    ),
    "negative-ball-radius-validate": (
        "validate", _ORBIT_ON.format("Z^1").replace("orbit", "fixed-point")
        + "mode = isometry\nball_radius = -1\n",
        2, False, "diagnostic: ValueError: radius must be >= 0",
    ),
    "seed-not-a-number-validate": (
        "validate", "experiment = odometer-density\nprecision = 8\nepsilons = 2^-4\nseed = x\n",
        2, False, "diagnostic: invalid numeric value for 'seed'",
    ),
    "cap-not-a-number-validate": (
        "validate", _ORBIT_ON.format("Z^1") + "cap = x\n", 2, False,
        "diagnostic: invalid numeric value for 'cap'",
    ),
    "fractional-horizon-validate": (
        "validate", _ORBIT_ON.format("Z^1").replace("horizon = 4", "horizon = 5/2"), 2, False,
        "diagnostic: invalid count for 'horizon': 5/2 is not an integer",
    ),
    "fractional-horizon-run": (
        "run", _ORBIT_ON.format("Z^1").replace("horizon = 4", "horizon = 5/2"), 2, True,
        "error: invalid count for 'horizon': 5/2 is not an integer",
    ),
    "heights-per-octave-0-validate": (
        "validate", _CONE_DIAGNOSTIC.format("heights_per_octave = 0"), 2, False,
        "diagnostic: ValueError: per_octave must be >= 1",
    ),
    # every numeric key reads the documented literals
    "height-max-power-validate": ("validate", _ROTATE_ORBIT, 0, False, "ok"),
    "height-max-power-run": ("run", _ROTATE_ORBIT, 0, True, "orbit_size: 8"),
    # a zero denominator in a cone key is a config error, not a crash
    "edge-length-1-0-run": (
        "run", _CONE_DIAGNOSTIC.format("edge_length = 1/0"), 2, True,
        "error: invalid numeric value for 'edge_length': Fraction(1, 0)",
    ),
    "extra-heights-1-0-run": (
        "run", _CONE_DIAGNOSTIC.format("extra_heights = 1/0"), 2, True,
        "error: invalid numeric list for 'extra_heights': Fraction(1, 0)",
    ),
    # a literal too large for a float is a config error, not an OverflowError
    "radii-10-400-validate": (
        "validate", _RADII_10_400, 2, False,
        "diagnostic: invalid numeric value for 'radii': too large for a float "
        "(radii = 10^400)",
    ),
    "radii-10-400-run": (
        "run", _RADII_10_400, 2, True,
        "error: invalid numeric value for 'radii': too large for a float (radii = 10^400)",
    ),
    "height-max-10-400-run": (
        "run", _CONE_DIAGNOSTIC.format("height_max = 10^400"), 2, True,
        "error: invalid numeric value for 'height_max': too large for a float",
    ),
    "cone-start-10-400-validate": (
        "validate", _ROTATE_ORBIT.replace("0@4", "0@10^400"), 2, False,
        "diagnostic: ValueError: height 10^400 is too large for a float",
    ),
    "edge-length-10-400-validate": (
        "validate", "experiment = cone-diagnostic\nbase_edges = x y 10^400\n"
        "entourage_radius = 1\nheights = 2\n", 2, False,
        "diagnostic: ValueError: bad edge length in 'x y 10^400'",
    ),
    "entourage-radius-minus-10-400-validate": (
        "validate",
        _CONE_DIAGNOSTIC.format("").replace("entourage_radius = 1", "entourage_radius = -10^400"),
        2, False,
        "diagnostic: invalid numeric value for 'entourage_radius': too large for a float",
    ),
    # two faults: the reader reports the first it reads, the space name,
    # then cap, then the model's keys in their own order
    "unknown-space-and-fractional-cap-validate": (
        "validate", _ORBIT_ON.format("Q^2") + "cap = 1/2\n", 2, False,
        "diagnostic: unknown space model 'Q^2'\n",
    ),
    "fractional-cap-and-short-generator-validate": (
        "validate", _ORBIT_ON.format("Z^2") + "cap = 1/2\ngenerators = 1\n", 2, False,
        "diagnostic: invalid count for 'cap': 1/2 is not an integer\n",
    ),
    # sets that do not generate Z^2 once validated ok, and run searched to
    # the cap for (1, 0); so did an entry that is not an integer
    "generators-index-3-validate": (
        "validate", _LATTICE_GENERATORS.format("1 2, 0 3"), 2, False,
        "diagnostic: 'generators' generate a subgroup of index 3 in Z^2, not all of it: "
        "'1 2, 0 3'\n",
    ),
    "generators-index-3-run": (
        "run", _LATTICE_GENERATORS.format("1 2, 0 3"), 2, True,
        "error: 'generators' generate a subgroup of index 3 in Z^2",
    ),
    "generators-one-vector-validate": (
        "validate", _LATTICE_GENERATORS.format("1 1"), 2, False,
        "diagnostic: 'generators' generate a subgroup of infinite index in Z^2",
    ),
    "generators-fraction-validate": (
        "validate", _LATTICE_GENERATORS.format("1 0.5, 0 1"), 2, False,
        "diagnostic: invalid integer '0.5' in 'generators'\n",
    ),
    "fractional-cap-and-no-base-validate": (
        "validate", "experiment = orbit\nspace = cone\ncap = 1/2\naction = rotate\nhorizon = 4\n",
        2, False, "diagnostic: invalid count for 'cap': 1/2 is not an integer\n",
    ),
    "fractional-base-cycle-and-huge-height-max-validate": (
        "validate",
        _BASE_CYCLE_2.replace("base_cycle = 2", "base_cycle = 5/2\nheight_max = 10^400"), 2, False, "diagnostic: invalid count for 'base_cycle': 5/2 is not an integer\n",
    ),
    "unknown-lam-and-bad-extra-heights-validate": (
        "validate", _CONE_DIAGNOSTIC.format("lam = cubic\nextra_heights = x"), 2, False,
        "diagnostic: invalid numeric list for 'extra_heights': ",
    ),
    "cone-diagnostic-bad-cap-validate": (
        "validate", _CONE_DIAGNOSTIC.format("cap = x"), 2, False,
        "diagnostic: invalid numeric value for 'cap': ",
    ),
    # the diagnostic enumerates the 448 grid points above its lowest
    # threshold, and the cap applies to them (it once ran to all-passed)
    "cone-diagnostic-cap-1-validate": (
        "validate", _CONE_DIAGNOSTIC_CFG + "cap = 1\n", 2, False,
        "diagnostic: CapExceeded: diagnostic enumeration exceeded cap of 1 points",
    ),
    "cone-diagnostic-cap-1-run": (
        "run", _CONE_DIAGNOSTIC_CFG + "cap = 1\n", 2, True,
        "error: CapExceeded: diagnostic enumeration exceeded cap of 1 points",
    ),
    "cone-diagnostic-cap-447-run": (
        "run", _CONE_DIAGNOSTIC_CFG + "cap = 447\n", 2, True,
        "error: CapExceeded: diagnostic enumeration exceeded cap of 447 points",
    ),
    "cone-diagnostic-cap-448-run": (
        "run", _CONE_DIAGNOSTIC_CFG + "cap = 448\n", 0, True, "diagnostic: all-passed",
    ),
}


@pytest.mark.parametrize("case", list(FAILURE_CONFIGS))
def test_failure_configs(case, tmp_path, capsys):
    command, text, status, has_manifest, message = FAILURE_CONFIGS[case]
    (tmp_path / "triangle.edges").write_text("x y 1\ny z 1\nz x 1\n")
    cfg = tmp_path / "case.cfg"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text.format(dir=tmp_path))
    out = tmp_path / "out"
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == status
    printed = capsys.readouterr().out
    assert message in printed
    assert (out / "manifest.json").exists() == has_manifest
    if has_manifest:
        doc = json.loads((out / "manifest.json").read_text())
        if status == 0:
            assert doc["error"] is None and doc["outputs"]
        else:
            assert doc["error"] in printed and doc["outputs"] == []


# no row here fails inside a certifier (the cone diagnostic's check of a
# threshold above the grid top would): each fails in the kind's reader,
# which validate calls too
@pytest.mark.parametrize("case", [
    case for case, (command, text, status, _, _) in FAILURE_CONFIGS.items()
    if command == "run" and isinstance(text, str) and status == 2
])
def test_validate_agrees_with_run(case, tmp_path, capsys):
    (tmp_path / "triangle.edges").write_text("x y 1\ny z 1\nz x 1\n")
    cfg = tmp_path / "case.cfg"
    cfg.write_text(FAILURE_CONFIGS[case][1].format(dir=tmp_path))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    line = capsys.readouterr().out.strip()
    assert line.startswith("error: ")
    assert validate(load_config(cfg)) == [line[len("error: "):]]


@pytest.mark.parametrize("space,action", [
    ("Z^1", "self-translation"), ("Z^3", "self-translation"), ("N^2", "self-translation"),
    ("F2", "right-multiply\nby = a"), ("tree", "odometer"),
])
@pytest.mark.parametrize("sample_radius", [0, 2])
@pytest.mark.parametrize("cap", [0, 4, 12, 25, 63])
def test_validate_reports_the_balls_run_cannot_enumerate(space, action, sample_radius, cap):
    cfg = cfg_from(f"experiment = verify-coarse\nspace = {space}\naction = {action}\n"
                   f"sample_radius = {sample_radius}\ndomain_radius = 3\ncap = {cap}\n")
    sp = space_from_config(cfg)
    over = set()
    for name, r in (("sample ball", sample_radius), ("domain ball", 3)):
        try:
            sp.closed_ball(sp.basepoint, r)
        except CapExceeded:
            over.add(name)
    reported = validate(cfg)
    assert {name for name in ("sample ball", "domain ball") if name in "".join(reported)} == over
    # the certifier itself, past the reader, raises exactly when validate reports
    try:
        actions.verify_coarse_action(build_action(cfg, sp), sp, [1, 2], sample_radius, 3)
    except CapExceeded:
        assert over
    else:
        assert not over and reported == []


def test_main_batch_continues_after_config_error(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "cone.cfg").write_text(_TRANSLATE_CONE)
    (batch / "walk.cfg").write_text(
        "experiment = orbit\nspace = Z^1\naction = translate\nby = 1\nhorizon = 4\n"
    )
    assert main(["batch", str(batch), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "cone.cfg: error: translate acts on a lattice space" in out
    assert "walk.cfg: exit 0" in out
    for stem in ("cone", "walk"):
        assert (tmp_path / "out" / stem / "manifest.json").exists()


def test_main_batch_continues_after_zero_denominator(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.cfg").write_text(_CONE_DIAGNOSTIC.format("edge_length = 1/0"))
    (batch / "b.cfg").write_text(_ORBIT_ON.format("Z^1"))
    assert main(["batch", str(batch), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "a.cfg: error: invalid numeric value for 'edge_length': Fraction(1, 0)" in out
    assert "b.cfg: exit 0" in out
    for stem in ("a", "b"):
        assert (tmp_path / "out" / stem / "manifest.json").exists()


def test_unwritable_outputs_exit_2_and_batch_goes_on(tmp_path, capsys):
    # an output directory under a regular file: the one failure that can
    # write no manifest, reported as a resource error, not a refutation
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", str(CONFIGS / "orbit_z2.cfg"), "--out", str(blocker / "o")]) == 2
    assert capsys.readouterr().out.startswith("error: cannot write outputs: ")
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.cfg").write_text(_ORBIT_ON.format("Z^1"))
    (batch / "b.cfg").write_text(_ORBIT_ON.format("Z^1"))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "a").write_text("")  # a's output directory is a file
    assert main(["batch", str(batch), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "a.cfg: error: cannot write outputs: " in out
    assert "b.cfg: exit 0" in out
    assert (tmp_path / "out" / "b" / "manifest.json").exists()


@pytest.mark.parametrize("text, verdict, sups", [
    ("space = Z^2\naction = translate\nby = 2, 1\nsample_radius = 40\n",
     "certified-at-scale", [3.0, 3.0, 3.0]),
    ("space = F2\naction = left-multiply\nby = a\nsample_radius = 6\n",
     "inconclusive", [7.0, 11.0, 13.0]),
])
def test_closeness_run(tmp_path, text, verdict, sups):
    manifest = run(cfg_from("experiment = closeness\n" + text), tmp_path / "o")
    assert manifest.verdicts == {"close": verdict, "refuted": False}
    rows = (tmp_path / "o" / "report.csv").read_text().strip().split("\n")[1:]
    assert [float(r.split(",")[2]) for r in rows] == sups
    assert json.loads((tmp_path / "o" / "report.json").read_text())["verdict"] == verdict


def test_experiment_docs_cover_every_kind():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "experiments.md").read_text()
    sections = dict(part.partition("\n")[::2] for part in doc.split("\n## ")[1:])
    for kind, (_, required) in _EXPERIMENTS.items():
        assert kind in sections, f"docs/experiments.md has no '## {kind}' section"
        for key in required:
            assert f"`{key}`" in sections[kind], f"'## {kind}' does not name {key!r}"


def test_docs_recipes_validate(tmp_path):
    doc = (Path(__file__).resolve().parent.parent / "docs" / "experiments.md").read_text()
    recipes = doc.split("\n## Recipes\n", 1)[1].split("\n## ", 1)[0]
    blocks = recipes.split("```")[1::2]
    assert blocks
    for i, text in enumerate(blocks):
        path = tmp_path / f"recipe{i}.cfg"
        path.write_text(text)
        assert validate(load_config(path)) == [], text


def test_build_action_rotate_needs_base_cycle():
    cfg = cfg_from(f"space = cone\nbase_edges = {CONFIGS / 'cycle16.edges'}\naction = rotate\n")
    with pytest.raises(ConfigError, match="base_cycle"):
        build_action(cfg, space_from_config(cfg))
