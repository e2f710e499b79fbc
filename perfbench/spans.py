"""Span recorder for the traced benchmark pass.

The recorder times coarselab from the outside: while installed it
replaces public functions and methods of the package's six modules with
wrappers that record one span per call (name, model tag, start, end,
parent span, verdict id, work count) and restores the originals on
exit.  Spans stay in memory and are written out when the run ends.  No
library source is touched.

A layer's self time is the sum over its spans of duration minus the
time covered by direct child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from coarselab import actions, cli, coarse, cone, odometer, spaces

SPAN_FIELDS = ("name", "tag", "start", "end", "parent", "verdict", "work")

# (module, function name, span name, work count taken from (args, result));
# cone.dijkstra is scipy's, wrapped where cone calls it
_FUNCTIONS = (
    (spaces, "word_metric_bfs_oracle", "spaces.bfs_oracle", lambda a, r: len(r)),
    (coarse, "bornologous_profile", "coarse.bornologous_profile", None),
    (coarse, "properness_table", "coarse.properness_table", None),
    (coarse, "closeness_bound", "coarse.closeness_bound", None),
    (coarse, "higson_defect", "coarse.higson_defect", None),
    (actions, "orbit", "actions.orbit", None),
    (actions, "detect_coarse_fixed_point_isometry", "actions.fixed_point_isometry", None),
    (actions, "isometry_orbit_lipschitz", "actions.orbit_lipschitz", None),
    (actions, "verify_coarse_action", "actions.verify_coarse_action", None),
    (actions, "boundary_moves_witness", "actions.boundary_witness", None),
    (actions, "verify_boundary_witness", "actions.boundary_witness", None),
    (odometer, "gromov_product_table", "odometer.gromov_product_table",
     lambda a, r: len(a[0]) ** 2),
    (odometer, "odometer_step", "odometer.odometer_step", None),
    (odometer, "minimality_witness", "odometer.minimality_witness", None),
    (cone, "compactification_diagnostic", "cone.compactification_diagnostic", None),
    (cone, "dijkstra", "cone.dijkstra", lambda a, r: 1 if r.ndim == 1 else r.shape[0]),
    (cli, "run", "cli.run", None),
    (cli, "validate", "cli.validate", None),
)

# a single-source dijkstra call (1-D result) is a ConeSpace row-cache miss
_TAGS = {"cone.dijkstra": lambda a, r: "single" if r.ndim == 1 else "multi"}


def _model(args, result):
    return args[0].model


# Space methods, spanned as spaces.<method> and tagged with the model
_METHODS = (
    ("pairwise", lambda a, r: len(a[1]) * len(a[2])),
    ("paired", lambda a, r: len(a[1])),
    ("distance", None),
    ("closed_ball", lambda a, r: len(r)),
)

# factories whose returned point maps are counted as actions.map_calls
_MAP_FACTORIES = ("lattice_translation", "left_translation", "right_translation")
_ACTION_FACTORIES = (
    "iterated_map_action",
    "lattice_translation_action",
    "free_group_left_translation_action",
)

# name, unit, better: the per-layer metrics of BENCHMARK.json, in order
LAYER_METRICS = (
    ("spaces.pairwise.calls", "count", "lower"),
    ("spaces.pairwise.pairs", "count", "lower"),
    ("spaces.pairwise.self_s", "s", "lower"),
    ("spaces.pairwise.free-group.pairs_per_s", "1/s", "higher"),
    ("spaces.pairwise.binary-tree.pairs_per_s", "1/s", "higher"),
    ("spaces.pairwise.lattice.pairs_per_s", "1/s", "higher"),
    ("spaces.pairwise.cone.pairs_per_s", "1/s", "higher"),
    ("spaces.paired.pairs", "count", "lower"),
    ("spaces.paired.self_s", "s", "lower"),
    ("spaces.closed_ball.calls", "count", "lower"),
    ("spaces.closed_ball.points", "count", "lower"),
    ("spaces.closed_ball.self_s", "s", "lower"),
    ("spaces.closed_ball.points_per_s", "1/s", "higher"),
    ("spaces.bfs_oracle.points", "count", "lower"),
    ("spaces.bfs_oracle.self_s", "s", "lower"),
    ("spaces.distance.calls", "count", "lower"),
    ("spaces.distance.self_s", "s", "lower"),
    ("coarse.bornologous_profile.calls", "count", "lower"),
    ("coarse.bornologous_profile.self_s", "s", "lower"),
    ("coarse.properness_table.self_s", "s", "lower"),
    ("coarse.closeness_bound.self_s", "s", "lower"),
    ("coarse.higson_defect.self_s", "s", "lower"),
    ("actions.orbit.self_s", "s", "lower"),
    ("actions.fixed_point_isometry.self_s", "s", "lower"),
    ("actions.orbit_lipschitz.self_s", "s", "lower"),
    ("actions.verify_coarse_action.self_s", "s", "lower"),
    ("actions.map_calls", "count", "lower"),
    ("actions.boundary_witness.calls", "count", "lower"),
    ("actions.boundary_witness.self_s", "s", "lower"),
    ("odometer.gromov_product_table.self_s", "s", "lower"),
    ("odometer.gromov_product_table.pairs_per_s", "1/s", "higher"),
    ("odometer.odometer_step.calls", "count", "lower"),
    ("odometer.minimality_witness.calls", "count", "lower"),
    ("odometer.minimality_witness.self_s", "s", "lower"),
    ("cone.dijkstra.calls", "count", "lower"),
    ("cone.dijkstra.rows", "count", "lower"),
    ("cone.dijkstra.self_s", "s", "lower"),
    ("cone.row_cache.lookups", "count", "lower"),
    ("cone.row_cache.misses", "count", "lower"),
    ("cone.row_cache.miss_ratio", "ratio", "lower"),
    ("cone.grid_build.self_s", "s", "lower"),
    ("cone.compactification_diagnostic.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.validate.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


class Recorder:
    """Installs the wrappers (as a context manager) and keeps the spans.

    ``verdict`` is set by the caller to the id of the verdict being
    computed; every span records it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.verdict = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _spanned(self, name, fn, work=None, tag=None):
        """Wrap ``fn`` to record a span; ``work(args, result)`` gives its
        work count and ``tag(args, result)`` its tag."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a subclass calling its base-class fallback stays one span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, "", 0.0, 0.0, stack[-1] if stack else -1, self.verdict, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if tag is not None:
                span[1] = tag(args, result)
            if work is not None:
                span[6] = work(args, result)
            return result

        return wrapper

    def _counted_map(self, fn):
        if getattr(fn, "_perfbench_counted", False):
            return fn
        counters = self.counters

        def counted(p):
            counters["actions.map_calls"] += 1
            return fn(p)

        counted._perfbench_counted = True
        return counted

    def _counted_action(self, spec):
        return actions.ActionSpec(
            spec.semigroup,
            tuple((n, self._counted_map(f)) for n, f in spec.generator_maps),
            spec.isometry,
        )

    def _replace_everywhere(self, original, replacement):
        """Swap ``original`` for ``replacement`` in every coarselab module
        namespace that holds it (modules import names from each other)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "coarselab" or mod_name.startswith("coarselab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self):
        for module, fname, span_name, work in _FUNCTIONS:
            original = getattr(module, fname)
            self._replace_everywhere(
                original, self._spanned(span_name, original, work, _TAGS.get(span_name))
            )
        classes = [
            c for m in (spaces, cone) for c in vars(m).values()
            if isinstance(c, type) and issubclass(c, spaces.Space)
        ]
        for cls in classes:
            for meth, work in _METHODS:
                if meth in cls.__dict__:
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._spanned(f"spaces.{meth}", original, work, _model))
        build = cone.ConeGrid.__dict__["build"]
        self._patches.append((cone.ConeGrid, "build", build))
        cone.ConeGrid.build = staticmethod(self._spanned("cone.grid_build", build.__func__))
        for fname in _MAP_FACTORIES:
            original = getattr(actions, fname)
            self._replace_everywhere(
                original, functools.wraps(original)(
                    lambda *a, _f=original: self._counted_map(_f(*a)))
            )
        for fname in _ACTION_FACTORIES:
            original = getattr(actions, fname)
            self._replace_everywhere(
                original, functools.wraps(original)(
                    lambda *a, _f=original, **k: self._counted_action(_f(*a, **k)))
            )
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def count(self, name: str, n: int):
        self.counters[name] += n

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans, keyed as LAYER_METRICS
        (trace_overhead_ratio excepted; the runner owns that one)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, tag, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, work, self_s = Counter(), Counter(), defaultdict(float)
        inclusive = defaultdict(float)
        for i, (name, tag, start, end, _, _, n) in enumerate(spans):
            for key in (name, f"{name}.{tag}") if tag else (name,):
                calls[key] += 1
                work[key] += n
                self_s[key] += end - start - child[i]
                inclusive[key] += end - start

        def rate(key):
            return work[key] / inclusive[key] if inclusive[key] > 0 else 0.0

        lookups = (
            calls["spaces.distance.cone"] + work["spaces.paired.cone"]
            + calls["spaces.closed_ball.cone"]
        )
        misses = calls["cone.dijkstra.single"]
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            if metric == "trace_overhead_ratio":
                continue
            key, _, field = metric.rpartition(".")
            if metric == "cone.row_cache.lookups":
                value = lookups
            elif metric == "cone.row_cache.misses":
                value = misses
            elif metric == "cone.row_cache.miss_ratio":
                value = misses / lookups if lookups else 0.0
            elif metric in ("actions.map_calls", "cli.bytes_written"):
                value = self.counters[metric]
            elif field == "calls":
                value = calls[key]
            elif field in ("pairs", "points", "rows"):
                value = work[key]
            elif field == "self_s":
                value = self_s[key]
            elif field in ("pairs_per_s", "points_per_s"):
                value = rate(key)
            else:  # pragma: no cover - LAYER_METRICS and this table disagree
                raise KeyError(metric)
            out[metric] = value
        return out
