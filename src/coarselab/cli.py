"""Experiment runner: reproducible runs from key-value config files.

One experiment per config file.  Exit status is 0 when every verdict
passes or certifies, 1 when any verdict is refuted (so CI can gate on
the measured inequalities), 2 on configuration errors, and 3 when an
internal check of a certifier fails (a map declared isometric is not,
or a certificate does not re-check).  Every run writes a manifest, also
on failure, that echoes the config and pins the seed, so re-running a
manifest's config reproduces the CSV outputs byte for byte; only an
output directory that cannot be written leaves none (exit 2).
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
    DEFAULT_CAP,
    BallSpec,
    BinaryTreeSpace,
    CapExceeded,
    FreeGroupSpace,
    LatticeSpace,
    Space,
    _as_int_radius,
    _number,
)


class ConfigError(ValueError):
    """A config key that is missing, or whose value the library cannot read."""


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
        """The numeric literal under ``key``, or ``default`` when the key
        is absent."""
        if key not in self.raw:
            if default is None:
                raise ConfigError(f"missing required numeric field {key!r}")
            return Fraction(default)
        try:
            return _number(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"invalid numeric value for {key!r}: {exc}") from exc

    def count(self, key: str, default=None) -> int:
        """``number`` for a count: a fraction is an error, not truncated."""
        value = self.number(key, default)
        if value.denominator != 1:
            raise ConfigError(f"invalid count for {key!r}: {self.raw[key]} is not an integer")
        return int(value)

    def numbers(self, key: str, default: str | None = None) -> list[Fraction]:
        """The comma-separated numeric literals under ``key``."""
        text = self.raw.get(key, default)
        if text is None:
            raise ConfigError(f"missing required list field {key!r}")
        try:
            return [_number(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigError(f"invalid numeric list for {key!r}: {exc}") from exc

    def real(self, key: str, default=None) -> float:
        """``number`` rounded to a float.  A literal too large for a float
        is a ``ConfigError`` that names the key, not an ``OverflowError``."""
        return self._rounded(key, default, [self.number(key, default)])[0]

    def reals(self, key: str, default: str | None = None) -> list[float]:
        """``numbers`` rounded to floats, checked as ``real``."""
        return self._rounded(key, default, self.numbers(key, default))

    def _rounded(self, key: str, default, values: list[Fraction]) -> list[float]:
        try:
            return [float(v) for v in values]
        except OverflowError:
            raise ConfigError(f"invalid numeric value for {key!r}: too large for a float "
                              f"({key} = {self.get(key, default)})") from None

    def optional_number(self, key: str) -> float | None:
        return self.real(key) if key in self.raw else None

    def checked_numbers(self, key: str, check, default: str | None = None) -> list:
        """The numeric list under ``key`` as the certifier's ``check``
        returns it; a failed check names the key and its text."""
        values = self.reals(key, default)
        try:
            return check(values)
        except ValueError as exc:
            raise ConfigError(f"{exc} ({key} = {self.get(key, default)})") from exc

    @property
    def seed(self) -> int:
        return self.count("seed", 0)


_MODEL_NAMES = {"f2": "free-group", "tree": "binary-tree", "t2": "binary-tree",
                "binary-tree": "binary-tree", "cone": "cone"}


def space_from_config(cfg: ExperimentConfig) -> Space:
    """The space the ``space`` key names: ``Z^k``, ``N^k`` (k a positive
    integer), ``F2``, ``tree`` (or ``T2``) or ``cone``.  The name is
    checked first, then ``cap``, then the model's keys: ``generators``
    on a lattice or F2, the grid keys on a cone."""
    name = cfg.get("space", "")
    low = name.strip().lower()
    if not low:
        raise ConfigError("missing required field 'space'")
    if low.startswith(("z^", "n^")) or low in ("z", "n"):
        try:
            rank = int(low[2:]) if "^" in low else 1
        except ValueError:
            rank = 0
        if rank < 1:
            raise ConfigError(f"lattice rank must be a positive integer: {name!r}")
        model = "lattice"
    elif low in _MODEL_NAMES:
        model = _MODEL_NAMES[low]
    else:
        raise ConfigError(f"unknown space model {name!r}")
    cap = cfg.count("cap", DEFAULT_CAP)
    gens = cfg.get("generators")
    if model == "lattice":
        if gens is not None:
            vectors = []
            for part in gens.split(","):
                vectors.append(tuple(int(c) for c in part.split()))
                if len(vectors[-1]) != rank:
                    raise ValueError(f"generator {part!r} does not have rank {rank}")
            gens = tuple(vectors)
        return LatticeSpace(rank=rank, signed=low.startswith("z"), generators=gens, cap=cap)
    if model == "free-group":
        gens = ("a", "b") if gens is None else tuple(w.strip() for w in gens.split(","))
        return FreeGroupSpace(generators=gens, cap=cap)
    if model == "binary-tree":
        return BinaryTreeSpace(cap=cap)
    return _cone_space(cfg, cap)


_LAMBDAS = {"linear": cone.LambdaFunction.linear, "sqrt": cone.LambdaFunction.sqrt}


def _cone_space(cfg: ExperimentConfig, cap: int) -> cone.ConeSpace:
    """The cone the grid keys describe.  Base graph: either
    ``base_cycle = n`` (with optional ``edge_length``) or ``base_edges``
    holding edge-list text or a file path.  Heights: geometric up to
    ``height_max`` (``heights_per_octave`` rows per octave) plus any
    ``extra_heights``.  ``lam`` picks linear or sqrt."""
    if "base_cycle" in cfg.raw:
        edge_length = cfg.real("edge_length", 1)
        nodes, edges = cone.cycle_graph(cfg.count("base_cycle"), edge_length)
    elif "base_edges" in cfg.raw:
        text = cfg.raw["base_edges"]
        if "\n" not in text and text.endswith((".edges", ".txt")):
            try:
                with open(text) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read base_edges {text!r}: {exc.strerror}") from exc
        nodes, edges = cone.load_edge_list(text)
    else:
        raise ConfigError("cone space needs 'base_cycle' or 'base_edges'")
    extra = cfg.reals("extra_heights", "")
    heights = cone.geometric_heights(cfg.real("height_max", 64),
                                     cfg.count("heights_per_octave", 4), extra)
    lam_name = cfg.get("lam", "linear").lower()
    if lam_name not in _LAMBDAS:
        raise ConfigError(f"unknown lambda choice {lam_name!r}")
    grid = cone.ConeGrid.build(nodes, edges, heights)
    return cone.ConeSpace(grid, _LAMBDAS[lam_name](), cap=cap)


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
        try:
            return space.validate((node, float(_number(height))))
        except OverflowError:
            raise ValueError(f"height {height} is too large for a float") from None
    raise ConfigError(f"cannot parse a point for model {space.model!r}")


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
        # rotate reads node names as positions 0..n-1 around a base_cycle cone
        if "base_cycle" not in cfg.raw:
            raise ConfigError("action 'rotate' needs a cone built from 'base_cycle'")
        step = cfg.count("step", 1)
        n = len(space.grid.nodes)

        def rot(p):
            node, t = p
            if t == 0.0:
                return p
            return (str((int(node) + step) % n), t)

        return actions.iterated_map_action(rot, f"rotate+{step}", isometry=True)
    return actions.iterated_map_action(lambda p: space.basepoint, "constant")


# ---------------------------------------------------------------------------
# experiment readers.  Each reads and checks every key of its kind, builds
# the space, the action, the function and the start points, and returns
# the computation: a closure that calls the certifier and gives (verdicts,
# {output file: text}); a verdict that reads "refuted" refutes the run.
# validate and run share them.


def _start(cfg: ExperimentConfig, space: Space):
    start = cfg.get("start")
    return space.basepoint if start is None else parse_point(space, start)


def _over_cap_balls(space: Space, radii: list, sample_radius, domain_radius):
    """verify-coarse: raise for the sample and domain balls about the
    basepoint that would hold more points than the cap, from the ball
    sizes the enumeration checks against it (``Space._ball_size``: the
    standard F2, tree, Z^k and N^k).  As in the enumeration, a ball of
    radius 0 is not checked."""
    balls = {
        "sample ball": coarse._sample_radius(space, sample_radius),
        "domain ball": coarse._horizons(radii, domain_radius)[-1],
    }
    over = []
    for name, r in balls.items():
        radius = _as_int_radius(r)
        size = space._ball_size(radius) if radius else None
        if size is not None and size > space.cap:
            over.append(f"{name} B({space.format_point(space.basepoint)}, {r:g}) would hold "
                        f"{size} points, over the cap of {space.cap}")
    if over:
        raise ConfigError("; ".join(over))


def _verify_coarse(cfg: ExperimentConfig):
    space = space_from_config(cfg)
    action = build_action(cfg, space)
    radii = cfg.checked_numbers("radii", coarse._radii, "1,2,4,8")
    sample_radius = cfg.optional_number("sample_radius")
    domain_radius = cfg.optional_number("domain_radius")
    _over_cap_balls(space, radii, sample_radius, domain_radius)

    def compute():
        report = actions.verify_coarse_action(action, space, radii, sample_radius, domain_radius)
        return {"action": report.verdict}, {
            "report.csv": report.to_csv(), "report.json": _json(report.to_json_dict())}

    return compute


def _closeness(cfg: ExperimentConfig):
    space = space_from_config(cfg)
    action = build_action(cfg, space)
    if action.semigroup != "N":
        raise ConfigError("closeness needs an iterated action (one map)")
    sample_radius = cfg.optional_number("sample_radius")

    def compute():
        report = coarse.closeness_bound(action.step, lambda p: p, space, sample_radius)
        return {"close": report.verdict}, {
            "report.csv": report.to_csv(), "report.json": _json(report.to_json_dict())}

    return compute


def _orbit(cfg: ExperimentConfig):
    space = space_from_config(cfg)
    action = build_action(cfg, space)
    horizon = cfg.count("horizon")
    x0 = _start(cfg, space)

    def compute():
        record = actions.orbit(action, space, x0, horizon)
        return (
            {"orbit_size": len(record.points), "max_displacement": record.max_displacement},
            {"escape_profile.csv": record.escape_profile_csv(),
             "orbit.json": _json(record.to_json_dict(space))},
        )

    return compute


def _fixed_point(cfg: ExperimentConfig):
    space = space_from_config(cfg)
    action = build_action(cfg, space)
    horizon = cfg.count("horizon")
    x0 = _start(cfg, space)
    mode = cfg.get("mode", "finite")
    if mode == "finite":
        detect = lambda: actions.detect_coarse_fixed_point_finite(action, space, x0, horizon)
    elif mode == "isometry":
        ball = BallSpec(x0, cfg.real("ball_radius"))
        min_returns = cfg.count("min_returns", 50)
        seed = cfg.seed
        detect = lambda: actions.detect_coarse_fixed_point_isometry(
            action, space, x0, ball, horizon, min_returns=min_returns, seed=seed,
        )
    else:
        raise ConfigError(f"unknown fixed-point mode {mode!r}")

    def compute():
        result = detect()
        return {"detector": result.status}, {"verdict.json": _json(result.to_json_dict(space))}

    return compute


def _odometer_density(cfg: ExperimentConfig):
    precision = cfg.count("precision")
    epsilons = cfg.numbers("epsilons")
    short = [f"insufficient precision: epsilon {eps} needs more than {precision} bits"
             for eps in epsilons if odometer._precision_for(eps) >= precision]
    if short:
        raise ConfigError("; ".join(short))
    n_targets = cfg.count("targets", 10)
    rng = random.Random(cfg.seed)
    draw = lambda: BoundaryWord(tuple(rng.randrange(2) for _ in range(precision)))
    start_text = cfg.get("start")
    start = BoundaryWord(tuple(int(b) for b in start_text)) if start_text else draw()
    targets = [draw() for _ in range(n_targets)]

    def compute():
        table = odometer.density_experiment(start, targets, epsilons)
        verdict = "all-verified" if table.all_verified() else REFUTED
        return {"density": verdict, "rows": len(table.rows)}, {"density.csv": table.to_csv()}

    return compute


def _cone_diagnostic(cfg: ExperimentConfig):
    space = _cone_space(cfg, cfg.count("cap", DEFAULT_CAP))
    r_e = cfg.real("entourage_radius")
    heights = cfg.reals("heights")
    slack = cfg.real("slack", Fraction(1, 10))
    cone._check_slack(slack)
    # the diagnostic enumerates the points above each threshold, the most
    # above the lowest
    space._check_cap(len(cone._above(space.grid, min(heights, default=math.inf))),
                     "diagnostic enumeration")

    def compute():
        table = cone.compactification_diagnostic(space.grid, space.lam, r_e, heights, slack,
                                                 space.cap)
        verdict = "all-passed" if table.all_passed() else REFUTED
        return {"diagnostic": verdict}, {"diagnostic.csv": table.to_csv()}

    return compute


def _sin_log(space):
    """sin(log(1 + d(x0, p))), marked radial: ``higson_defect`` evaluates
    it on its window's distances."""
    g = lambda d: math.sin(math.log1p(d))
    f = lambda p: g(space.distance(space.basepoint, p))
    f.radial = g
    return f


_FUNCTIONS = {
    "sin-log": _sin_log,
    "sin-coordinate": lambda space: (lambda p: math.sin(p[0])),
    "constant": lambda space: (lambda p: 1.0),
}


def _higson_defect(cfg: ExperimentConfig):
    space = space_from_config(cfg)
    fname = cfg.require("function")
    if fname not in _FUNCTIONS:
        raise ConfigError(f"unknown function {fname!r}; choose from {sorted(_FUNCTIONS)}")
    # sin-coordinate reads a point's first coordinate
    if fname == "sin-coordinate" and not isinstance(space, LatticeSpace):
        raise ConfigError("function 'sin-coordinate' needs a lattice space (Z^k or N^k)")
    f = _FUNCTIONS[fname](space)
    radius = cfg.real("entourage_radius")
    balls = cfg.checked_numbers("balls", coarse._balls)
    window_radius = cfg.optional_number("window_radius")
    if window_radius is not None:
        try:
            coarse._check_window(window_radius, balls)
        except ValueError as exc:
            raise ConfigError(f"{exc} (window_radius = {cfg.raw['window_radius']}, "
                              f"balls = {cfg.raw['balls']})") from exc

    def compute():
        table = coarse.higson_defect(f, space, radius, balls, window_radius=window_radius)
        final = table.rows[-1].value if table.rows else 0.0
        return {"defect_at_largest_ball": final}, {"defect.csv": table.to_csv()}

    return compute


# experiment kind -> (reader, config keys it cannot run without); validate
# and run both read this table, and diagnostics list the kinds in its order
_EXPERIMENTS = {
    "verify-coarse": (_verify_coarse, ("space", "action")),
    "closeness": (_closeness, ("space", "action")),
    "orbit": (_orbit, ("space", "action", "horizon")),
    "fixed-point": (_fixed_point, ("space", "action", "horizon")),
    "odometer-density": (_odometer_density, ("precision", "epsilons")),
    "cone-diagnostic": (_cone_diagnostic, ("entourage_radius", "heights")),
    "higson-defect": (_higson_defect, ("space", "function", "entourage_radius", "balls")),
}

# what a reader or a computation raises when the config cannot run
_RUN_ERRORS = (CapExceeded, MemoryError, ValueError)
# a certifier's own re-check failed: the config was valid, the result is not
_INTERNAL_CHECKS = (actions.IsometryViolation, AssertionError)


def _error_text(exc: BaseException) -> str:
    """A ConfigError's message alone; any other error with its class."""
    return str(exc) if isinstance(exc, ConfigError) else f"{type(exc).__name__}: {exc}"


def _missing(cfg: ExperimentConfig) -> list[str]:
    """An unknown kind, or each required key the config lacks."""
    exp = cfg.experiment
    if not exp:
        return ["missing required field 'experiment'"]
    if exp not in _EXPERIMENTS:
        return [f"unknown experiment {exp!r}; choose from {list(_EXPERIMENTS)}"]
    required = _EXPERIMENTS[exp][1]
    if exp == "fixed-point" and cfg.get("mode", "finite") == "isometry":
        required += ("ball_radius",)
    return [f"{exp} experiment is missing required field {key!r}"
            for key in required if key not in cfg.raw]


def validate(cfg: ExperimentConfig) -> list[str]:
    """Every missing required key; else the error, if any, of the kind's
    reader.  The reader builds the space but calls no certifier."""
    missing = _missing(cfg)
    if missing:
        return missing
    try:
        _EXPERIMENTS[cfg.experiment][0](cfg)
    except _RUN_ERRORS as exc:
        return [_error_text(exc)]
    return []


def run(cfg: ExperimentConfig, out_dir=None, seed: int | None = None,
        cap: int | None = None) -> RunManifest:
    """Execute one experiment; the manifest is written even on failure.

    Raises ``ConfigError`` when the config cannot run; a certifier's
    failed internal check is re-raised once the manifest records it.  An
    output that cannot be written raises its ``OSError``: the one failure
    that can leave no manifest.
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
    error = None
    verdicts: dict = {}
    texts: dict[str, str] = {}
    failure = None
    missing = _missing(cfg)
    if missing:
        error = "; ".join(missing)
    else:
        try:
            verdicts, texts = _EXPERIMENTS[cfg.experiment][0](cfg)()
        except _RUN_ERRORS + _INTERNAL_CHECKS as exc:
            error = _error_text(exc)
            if isinstance(exc, _INTERNAL_CHECKS):
                failure = exc
    for name, text in texts.items():
        _write_text(out / name, text)
    manifest = RunManifest(
        config=dict(cfg.raw),
        source=cfg.source,
        version=__version__,
        wall_clock_seconds=time.monotonic() - started,
        verdicts={**verdicts, "refuted": REFUTED in verdicts.values()},
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
    except ConfigError as exc:
        return 2, f"error: {exc}"
    except OSError as exc:
        return 2, f"error: cannot write outputs: {exc}"
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
