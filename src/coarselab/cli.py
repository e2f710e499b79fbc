"""Experiment runner: reproducible runs from key-value config files.

One experiment per config file.  Exit status is 0 when every verdict
passes or certifies, 1 when any verdict is refuted (so CI can gate on
the measured inequalities), 2 on configuration errors, and 3 when an
internal check of a certifier fails (a map declared isometric is not,
or a certificate does not re-check).  Every run writes a manifest, also
on failure, that echoes the config and pins the seed, so re-running a
manifest's config reproduces the CSV outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__, actions, coarse, cone, odometer
from .coarse import REFUTED
from .odometer import BoundaryWord
from .spaces import (
    BallSpec,
    BinaryTreeSpace,
    CapExceeded,
    FreeGroupSpace,
    LatticeSpace,
    Space,
    parse_space_name,
    space_from_config,
)

class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path) -> "ExperimentConfig":
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return ExperimentConfig(raw=parse_config_text(text), source=str(path))


def _number(text: str) -> Fraction:
    """Exact numeric literal: int, fraction 'p/q', power '2^-8', decimal."""
    text = text.strip()
    if "^" in text:
        base, exp = text.split("^", 1)
        return Fraction(base) ** int(exp)
    return Fraction(text)


def _number_list(text: str) -> list[Fraction]:
    return [_number(part) for part in text.split(",") if part.strip()]


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict[str, str]
    source: str = "<memory>"

    @property
    def experiment(self) -> str:
        return self.raw.get("experiment", "")

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.raw:
            raise ConfigError(
                f"{self.experiment or 'experiment'} config is missing required "
                f"field {key!r}"
            )
        return self.raw[key]

    def number(self, key: str, default=None) -> Fraction:
        if key not in self.raw:
            if default is None:
                raise ConfigError(f"missing required numeric field {key!r}")
            return Fraction(default)
        try:
            return _number(self.raw[key])
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"invalid numeric value for {key!r}: {exc}") from exc

    def optional_number(self, key: str) -> float | None:
        return float(self.number(key)) if key in self.raw else None

    def numbers(self, key: str, default: str | None = None) -> list[Fraction]:
        text = self.raw.get(key, default)
        if text is None:
            raise ConfigError(f"missing required list field {key!r}")
        try:
            return _number_list(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"invalid numeric list for {key!r}: {exc}") from exc

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))


@dataclass(frozen=True)
class RunManifest:
    config: dict[str, str]
    source: str
    version: str
    wall_clock_seconds: float
    verdicts: dict
    outputs: list[str]
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "config": dict(sorted(self.config.items())),
            "config_source": self.source,
            "library_version": self.version,
            "wall_clock_seconds": self.wall_clock_seconds,
            "verdicts": self.verdicts,
            "outputs": self.outputs,
            "error": self.error,
        }


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def parse_point(space: Space, text: str):
    """Parse a point literal matching the space's format_point output."""
    text = text.strip()
    if isinstance(space, LatticeSpace):
        inner = text.strip("()")
        return space.validate(tuple(int(c) for c in inner.replace(",", " ").split()))
    if isinstance(space, FreeGroupSpace):
        return space.validate("" if text in ("e", "") else text)
    if isinstance(space, BinaryTreeSpace):
        if text == "*":
            return ()
        return space.validate(tuple(int(c) for c in text))
    if isinstance(space, cone.ConeSpace):
        if text == "apex":
            return space.basepoint
        node, height = text.split("@")
        return space.validate((node, float(Fraction(height))))
    raise ConfigError(f"cannot parse a point for model {space.model!r}")


# rotate reads node names as positions 0..n-1 around a base_cycle cone
_ROTATE_NEEDS_CYCLE = "action 'rotate' needs a cone built from 'base_cycle'"

# action -> the space class it acts on
_ACTS_ON = {
    "self-translation": LatticeSpace,
    "left-translation": FreeGroupSpace,
    "translate": LatticeSpace,
    "left-multiply": FreeGroupSpace,
    "right-multiply": FreeGroupSpace,
    "odometer": BinaryTreeSpace,
    "rotate": cone.ConeSpace,
    "constant": Space,
}


def build_action(cfg: ExperimentConfig, space: Space) -> actions.ActionSpec:
    name = cfg.require("action").lower()
    if name not in _ACTS_ON:
        raise ConfigError(f"unknown action {cfg.get('action')!r}")
    if not isinstance(space, _ACTS_ON[name]):
        raise ConfigError(f"{name} acts on a {_ACTS_ON[name].model} space, not {space.model}")
    if name == "self-translation":
        return actions.lattice_translation_action(space)
    if name == "left-translation":
        return actions.free_group_left_translation_action()
    if name == "translate":
        vec = parse_point(space, cfg.require("by"))
        return actions.iterated_map_action(
            actions.lattice_translation(vec), f"translate{vec}", isometry=True
        )
    if name == "left-multiply":
        return actions.iterated_map_action(
            actions.left_translation(parse_point(space, cfg.require("by"))), "left-multiply",
            isometry=True,
        )
    if name == "right-multiply":
        return actions.iterated_map_action(
            actions.right_translation(parse_point(space, cfg.require("by"))), "right-multiply"
        )
    if name == "odometer":
        return actions.iterated_map_action(odometer.odometer_step, "odometer")
    if name == "rotate":
        if "base_cycle" not in cfg.raw:
            raise ConfigError(_ROTATE_NEEDS_CYCLE)
        step = int(cfg.get("step", 1))
        n = len(space.grid.nodes)

        def rot(p):
            node, t = p
            if t == 0.0:
                return p
            return (str((int(node) + step) % n), t)

        return actions.iterated_map_action(rot, f"rotate+{step}", isometry=True)
    return actions.iterated_map_action(lambda p: space.basepoint, "constant")


# ---------------------------------------------------------------------------
# experiment bodies; each returns (verdicts, {output file: text}, refuted?)


_DEFAULT_RADII = "1,2,4,8"


def _run_verify_coarse(cfg: ExperimentConfig):
    space = space_from_config(cfg.raw)
    action = build_action(cfg, space)
    radii = [float(r) for r in cfg.numbers("radii", _DEFAULT_RADII)]
    verification = actions.verify_coarse_action(
        action, space, radii, cfg.optional_number("sample_radius"),
        cfg.optional_number("domain_radius"),
    )
    return (
        {"action": verification.verdict},
        {"report.csv": verification.to_csv(),
         "report.json": _json(verification.to_json_dict())},
        verification.verdict == REFUTED,
    )


def _run_closeness(cfg: ExperimentConfig):
    space = space_from_config(cfg.raw)
    action = build_action(cfg, space)
    if action.semigroup != "N":
        raise ConfigError("closeness needs an iterated action (one map)")
    report = coarse.closeness_bound(
        action.step, lambda p: p, space, cfg.optional_number("sample_radius")
    )
    return (
        {"close": report.verdict},
        {"report.csv": report.to_csv(), "report.json": _json(report.to_json_dict())},
        False,
    )


def _run_orbit(cfg: ExperimentConfig):
    space = space_from_config(cfg.raw)
    action = build_action(cfg, space)
    horizon = int(cfg.number("horizon"))
    start = cfg.get("start")
    x0 = space.basepoint if start is None else parse_point(space, start)
    record = actions.orbit(action, space, x0, horizon)
    return (
        {"orbit_size": len(record.points), "max_displacement": record.max_displacement},
        {"escape_profile.csv": record.escape_profile_csv(),
         "orbit.json": _json(record.to_json_dict(space))},
        False,
    )


def _run_fixed_point(cfg: ExperimentConfig):
    space = space_from_config(cfg.raw)
    action = build_action(cfg, space)
    horizon = int(cfg.number("horizon"))
    mode = cfg.get("mode", "finite")
    start = cfg.get("start")
    x0 = space.basepoint if start is None else parse_point(space, start)
    if mode == "finite":
        result = actions.detect_coarse_fixed_point_finite(action, space, x0, horizon)
    elif mode == "isometry":
        radius = float(cfg.number("ball_radius"))
        min_returns = int(cfg.number("min_returns", 50))
        result = actions.detect_coarse_fixed_point_isometry(
            action, space, x0, BallSpec(x0, radius), horizon,
            min_returns=min_returns, seed=cfg.seed,
        )
    else:
        raise ConfigError(f"unknown fixed-point mode {mode!r}")
    return ({"detector": result.status}, {"verdict.json": _json(result.to_json_dict(space))},
            False)


def _random_boundary_word(rng: random.Random, precision: int) -> BoundaryWord:
    return BoundaryWord(tuple(rng.randrange(2) for _ in range(precision)))


def _run_odometer_density(cfg: ExperimentConfig):
    precision = int(cfg.number("precision"))
    epsilons = cfg.numbers("epsilons")
    n_targets = int(cfg.number("targets", 10))
    rng = random.Random(cfg.seed)
    start_text = cfg.get("start")
    if start_text:
        start = BoundaryWord(tuple(int(b) for b in start_text))
    else:
        start = _random_boundary_word(rng, precision)
    targets = [_random_boundary_word(rng, precision) for _ in range(n_targets)]
    table = odometer.density_experiment(start, targets, epsilons)
    ok = table.all_verified()
    return (
        {"density": "all-verified" if ok else "refuted", "rows": len(table.rows)},
        {"density.csv": table.to_csv()},
        not ok,
    )


def _run_cone_diagnostic(cfg: ExperimentConfig):
    space = space_from_config({**cfg.raw, "space": "cone"})
    r_e = float(cfg.number("entourage_radius"))
    heights = [float(t) for t in cfg.numbers("heights")]
    slack = float(cfg.number("slack", Fraction(1, 10)))
    table = cone.compactification_diagnostic(space.grid, space.lam, r_e, heights, slack)
    ok = table.all_passed()
    return (
        {"diagnostic": "all-passed" if ok else "refuted"},
        {"diagnostic.csv": table.to_csv()},
        not ok,
    )


# sin-coordinate reads a point's first coordinate
_SIN_NEEDS_LATTICE = "function 'sin-coordinate' needs a lattice space (Z^k or N^k)"

_FUNCTIONS = {
    "sin-log": lambda space: (
        lambda p: math.sin(math.log1p(space.distance(space.basepoint, p)))
    ),
    "sin-coordinate": lambda space: (lambda p: math.sin(p[0])),
    "constant": lambda space: (lambda p: 1.0),
}


def _run_higson_defect(cfg: ExperimentConfig):
    space = space_from_config(cfg.raw)
    fname = cfg.require("function")
    if fname not in _FUNCTIONS:
        raise ConfigError(
            f"unknown function {fname!r}; choose from {sorted(_FUNCTIONS)}"
        )
    if fname == "sin-coordinate" and not isinstance(space, LatticeSpace):
        raise ConfigError(_SIN_NEEDS_LATTICE)
    f = _FUNCTIONS[fname](space)
    radius = float(cfg.number("entourage_radius"))
    balls = [float(b) for b in cfg.numbers("balls")]
    table = coarse.higson_defect(
        f, space, radius, balls, window_radius=cfg.optional_number("window_radius"),
        function_id=fname,
    )
    final = table.rows[-1].value if table.rows else 0.0
    return ({"defect_at_largest_ball": final}, {"defect.csv": table.to_csv()}, False)


# experiment kind -> (body, config keys it cannot run without); validate
# and run both read this table, and diagnostics list the kinds in its order
_EXPERIMENTS = {
    "verify-coarse": (_run_verify_coarse, ("space", "action")),
    "closeness": (_run_closeness, ("space", "action")),
    "orbit": (_run_orbit, ("space", "action", "horizon")),
    "fixed-point": (_run_fixed_point, ("space", "action", "horizon")),
    "odometer-density": (_run_odometer_density, ("precision", "epsilons")),
    "cone-diagnostic": (_run_cone_diagnostic, ("entourage_radius", "heights")),
    "higson-defect": (_run_higson_defect, ("space", "function", "entourage_radius", "balls")),
}

# kind -> the numeric-list key its body reads, with the default, if any
_LISTS = {
    "verify-coarse": ("radii", _DEFAULT_RADII),
    "odometer-density": ("epsilons", None),
    "cone-diagnostic": ("heights", None),
    "higson-defect": ("balls", None),
}

# a certifier's own re-check failed: the config was valid, the result is not
_INTERNAL_CHECKS = (actions.IsometryViolation, AssertionError)


def validate(cfg: ExperimentConfig) -> list[str]:
    """Static diagnostics only; runs no computation."""
    exp = cfg.experiment
    if not exp:
        return ["missing required field 'experiment'"]
    if exp not in _EXPERIMENTS:
        return [f"unknown experiment {exp!r}; choose from {list(_EXPERIMENTS)}"]
    required = _EXPERIMENTS[exp][1]
    if exp == "fixed-point" and cfg.get("mode", "finite") == "isometry":
        required += ("ball_radius",)
    diags = [
        f"{exp} experiment is missing required field {key!r}"
        for key in required
        if key not in cfg.raw
    ]
    model = None  # the model the space value names, once it parses
    if "space" in required and "space" in cfg.raw:
        try:
            model = parse_space_name(cfg.raw["space"])[0]
        except ValueError as exc:
            diags.append(str(exc))
    key, default = _LISTS.get(exp, (None, None))
    values = None  # the kind's numeric list, once it parses
    if key in cfg.raw or default is not None:
        try:
            values = cfg.numbers(key, default)
        except ConfigError as exc:
            diags.append(str(exc))
    if exp == "verify-coarse" and values is not None:
        try:
            coarse._radii([float(r) for r in values])
        except ValueError as exc:
            diags.append(f"{exc} (radii = {cfg.get('radii', _DEFAULT_RADII)})")
    if exp == "odometer-density" and "precision" in cfg.raw and values is not None:
        try:
            precision = int(cfg.number("precision"))
            for eps in values:
                if odometer._precision_for(eps) >= precision:
                    diags.append(
                        f"insufficient precision: epsilon {eps} needs more than "
                        f"{precision} bits"
                    )
        except ValueError as exc:
            diags.append(str(exc))
    if exp == "cone-diagnostic" and not ("base_cycle" in cfg.raw or "base_edges" in cfg.raw):
        diags.append("cone-diagnostic needs 'base_cycle' or 'base_edges'")
    if ("action" in required and cfg.get("action", "").lower() == "rotate"
            and "base_cycle" not in cfg.raw):
        diags.append(_ROTATE_NEEDS_CYCLE)
    if (exp == "higson-defect" and cfg.get("function") == "sin-coordinate"
            and model not in (None, "lattice")):
        diags.append(_SIN_NEEDS_LATTICE)
    return diags


def run(cfg: ExperimentConfig, out_dir=None, seed: int | None = None,
        cap: int | None = None) -> RunManifest:
    """Execute one experiment; the manifest is written even on failure.

    Raises ``ConfigError`` when the config cannot run; a certifier's
    failed internal check is re-raised once the manifest records it.
    """
    raw = dict(cfg.raw)
    if seed is not None:
        raw["seed"] = str(seed)
    if cap is not None:
        raw["cap"] = str(cap)
    cfg = ExperimentConfig(raw=raw, source=cfg.source)

    out = Path(out_dir) if out_dir else Path(cfg.get("out", "results")) / (
        Path(cfg.source).stem if cfg.source != "<memory>" else cfg.experiment
    )
    started = time.monotonic()
    problems = validate(cfg)
    error = None
    verdicts: dict = {}
    texts: dict[str, str] = {}
    refuted = False
    failure = None
    if problems:
        error = "; ".join(problems)
    else:
        try:
            verdicts, texts, refuted = _EXPERIMENTS[cfg.experiment][0](cfg)
        except (ConfigError, CapExceeded, MemoryError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        except _INTERNAL_CHECKS as exc:
            error = f"{type(exc).__name__}: {exc}"
            failure = exc
    for name, text in texts.items():
        _write_text(out / name, text)
    manifest = RunManifest(
        config=dict(cfg.raw),
        source=cfg.source,
        version=__version__,
        wall_clock_seconds=time.monotonic() - started,
        verdicts={**verdicts, "refuted": refuted},
        outputs=list(texts),
        error=error,
    )
    _write_text(out / "manifest.json", _json(manifest.to_json_dict()))
    if failure is not None:
        raise failure
    if error is not None:
        raise ConfigError(error)
    return manifest


def _run_status(path, out, seed, cap) -> tuple[int, RunManifest | str]:
    """Run one config file; return its exit status with the manifest, or
    with the error line when the run raised."""
    try:
        manifest = run(load_config(path), out, seed, cap)
    except (ConfigError, CapExceeded) as exc:
        return 2, f"error: {exc}"
    except _INTERNAL_CHECKS as exc:
        return 3, f"internal check failed: {type(exc).__name__}: {exc}"
    return (1 if manifest.verdicts.get("refuted") else 0), manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coarselab", description="coarse-geometry experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "batch"):
        p = sub.add_parser(name)
        p.add_argument("path")
        if name != "validate":
            p.add_argument("--out", default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--cap", type=int, default=None)
    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            diags = validate(load_config(args.path))
        except ConfigError as exc:
            print(f"error: {exc}")
            return 2
        for d in diags:
            print(f"diagnostic: {d}")
        if not diags:
            print("ok")
        return 2 if diags else 0

    if args.command == "run":
        code, result = _run_status(args.path, args.out, args.seed, args.cap)
        if isinstance(result, str):
            print(result)
        else:
            for key, value in sorted(result.verdicts.items()):
                print(f"{key}: {value}")
        return code

    # batch: every *.cfg in the directory, worst exit status wins
    paths = sorted(Path(args.path).glob("*.cfg"))
    if not paths:
        print(f"error: no .cfg files under {args.path}")
        return 2
    worst = 0
    for path in paths:
        out = None if args.out is None else Path(args.out) / path.stem
        code, result = _run_status(path, out, args.seed, args.cap)
        print(f"{path.name}: {result}" if isinstance(result, str) else f"{path.name}: exit {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
