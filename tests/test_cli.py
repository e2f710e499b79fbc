import json
from fractions import Fraction
from pathlib import Path

import pytest

from coarselab import actions, cone
from coarselab.cli import (
    _EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _number,
    build_action,
    load_config,
    main,
    parse_config_text,
    parse_point,
    run,
    validate,
)
from coarselab.spaces import BinaryTreeSpace, FreeGroupSpace, LatticeSpace, space_from_config

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


def test_edge_list_cone_space():
    text = (CONFIGS / "cycle16.edges").read_text()
    space = space_from_config(
        {"space": "cone", "base_edges": text, "height_max": "4"}
    )
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

_BALLS_1_0 = (
    "experiment = higson-defect\nspace = Z^1\nfunction = sin-log\n"
    "entourage_radius = 1\nballs = 2, 1/0\n"
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
        "error: ConfigError: translate acts on a lattice space, not cone",
    ),
    "left-multiply-on-lattice-run": (
        "run",
        "experiment = orbit\nspace = Z^1\naction = left-multiply\nby = a\nhorizon = 4\n",
        2, True, "error: ConfigError: left-multiply acts on a free-group space, not lattice",
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
    "base-cycle-2-run": (
        "run",
        "experiment = cone-diagnostic\nbase_cycle = 2\nentourage_radius = 1\nheights = 2\n",
        2, True, "the base graph must be simple",
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


def test_main_batch_continues_after_config_error(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "cone.cfg").write_text(_TRANSLATE_CONE)
    (batch / "walk.cfg").write_text(
        "experiment = orbit\nspace = Z^1\naction = translate\nby = 1\nhorizon = 4\n"
    )
    assert main(["batch", str(batch), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "cone.cfg: error: ConfigError: translate acts on a lattice space" in out
    assert "walk.cfg: exit 0" in out
    for stem in ("cone", "walk"):
        assert (tmp_path / "out" / stem / "manifest.json").exists()


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
        build_action(cfg, space_from_config(cfg.raw))
