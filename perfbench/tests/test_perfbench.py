"""Tests of the benchmark itself: its checkers, digests and contract.

    python3 -m pytest perfbench/tests -q

Everything these tests write goes under perfbench/out/.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coarselab import actions, cli, coarse, cone  # noqa: E402

OTHER_SEED = 12345


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # config-batch reads configs/ relative to the checkout


@pytest.fixture
def scratch():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
    yield path
    shutil.rmtree(path)


def _bump_row(report, i, delta):
    rows = list(report.rows)
    rows[i] = dataclasses.replace(rows[i], value=rows[i].value + delta)
    return dataclasses.replace(report, rows=tuple(rows))


def _one_pass(name: str, seed: int, workdir: Path):
    wl = workloads.WORKLOADS[name]
    p = workloads.Pass(workdir=workdir)
    wl.run_pass(wl.prepare(seed), p)
    return p


# ---------------------------------------------------------------------------
# each workload's checker rejects a tampered result


def test_kernel_sweep_checkers_reject_tampering():
    report = coarse.bornologous_profile(
        actions.right_translation("ab"), workloads.F2, workloads.F2, workloads.C4_RADII, 6
    )
    assert workloads.check_translation_profile(report, "ab")[1] == []
    assert workloads.check_translation_profile(_bump_row(report, 2, 5.0), "ab")[1]

    vertices = workloads.tree_vertices()
    before, after = workloads._odometer_pairs(vertices)
    assert workloads.check_odometer_lipschitz((before, after))[1] == []
    after = after.copy()
    after[3, 7] = before[3, 7] + 3
    assert workloads.check_odometer_lipschitz((before, after))[1]

    depths = np.array([len(v) for v in vertices])
    prefix = workloads.odometer.gromov_product_table(vertices)
    assert workloads.check_gromov_table((prefix, before), depths)[1] == []
    prefix[5, 9] += 1
    assert workloads.check_gromov_table((prefix, before), depths)[1]


def test_orbit_dynamics_checkers_reject_tampering():
    grid, table, space, refined, pts = workloads._cone_diagnostic()
    assert workloads.check_diagnostic((grid, table))[1] == []
    rows = list(table.rows)
    rows[-1] = dataclasses.replace(rows[-1], measured_separation=1.0)
    assert workloads.check_diagnostic((grid, dataclasses.replace(table, rows=tuple(rows))))[1]

    ps, qs = pts[:40], pts[-40:]
    upper = space.paired(ps, qs)
    lower = np.array([cone.cone_distance_lower(p, q) for p, q in zip(ps, qs)])
    assert workloads.check_bracket((upper, lower))[1] == []
    assert workloads.check_bracket((upper, lower + np.where(np.arange(40) == 7, 1e3, 0)))[1]
    upper2 = refined.paired(ps, qs)
    assert workloads.check_refinement(upper2, upper)[1] == []
    assert workloads.check_refinement(upper2 + 1.0, upper)[1]

    xb, yb = (1, 0) * 12, (0, 1, 1) * 8
    sweep = workloads._witness_sweep(xb, yb)
    assert workloads.check_witnesses(sweep, xb, yb)[1] == []
    sweep[4] = (sweep[4][0] + 1, sweep[4][1])
    assert workloads.check_witnesses(sweep, xb, yb)[1]

    words = workloads.reduced_words(10)[:500]
    result = workloads._boundary_sweep(words)
    assert workloads.check_boundary(result, words)[1] == []
    g, idx, ok = result[123]
    result[123] = (g, idx + 1, ok)
    assert workloads.check_boundary(result, words)[1]


def test_config_batch_checker_and_digest_reject_tampering(scratch):
    reference = workloads.load_reference("config-batch")
    out = scratch / "orbit_z2"
    manifest = cli.run(cli.load_config(Path("configs/orbit_z2.cfg")), out)
    p = workloads.Pass(workdir=scratch)
    table, problems = workloads.check_config_run((manifest, out), p)
    assert problems == []
    record = workloads.Verdict("config/orbit_z2", 0.0, 0.0,
                               hashlib.sha256(table.encode()).hexdigest(), [], False)
    assert workloads.reference_problems(record, reference, OTHER_SEED) == []

    csv = out / "escape_profile.csv"
    csv.write_text(csv.read_text().replace("\n1,", "\n1,9", 1))
    table, problems = workloads.check_config_run((manifest, out), p)
    record = dataclasses.replace(record, digest=hashlib.sha256(table.encode()).hexdigest())
    assert workloads.reference_problems(record, reference, OTHER_SEED)

    (out / "orbit.json").unlink()
    assert workloads.check_config_run((manifest, out), p)[1]


# ---------------------------------------------------------------------------
# digests and seeds


def _digest_line(seed: int) -> str:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "orbit-dynamics",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return next(line for line in out.stdout.splitlines() if line.startswith("digest "))


def test_two_runs_at_one_seed_give_identical_digests():
    assert _digest_line(OTHER_SEED) == _digest_line(OTHER_SEED)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_passes_every_verdict_check(name, scratch):
    reference = workloads.load_reference(name)
    p = _one_pass(name, OTHER_SEED, scratch)
    assert {r.vid for r in p.records} >= {
        vid for vid in reference["verdicts"] if not vid.startswith(("c3/", "c10/bracket", "c10/refine"))
    }
    failures = [(r.vid, r.problems + workloads.reference_problems(r, reference, OTHER_SEED))
                for r in p.records]
    assert [f for f in failures if f[1]] == []


def test_config_batch_reference_matches_cli_batch(scratch):
    """The committed config-batch digests are those of `coarselab batch configs`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "coarselab.cli", "batch", "configs",
                    "--out", str(scratch)], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=300)
    produced = {
        f"{path.parent.name}/{path.name}": workloads.file_digest(path)
        for path in scratch.glob("*/*") if path.is_file()
    }
    assert produced == workloads.load_reference("config-batch")["files"]


# ---------------------------------------------------------------------------
# tracing and the contract


def test_recorder_reports_every_layer_metric_and_restores(scratch):
    original = coarse.bornologous_profile
    with spans.Recorder() as recorder:
        p = workloads.Pass(workdir=scratch, recorder=recorder)
        workloads.WORKLOADS["config-batch"].run_pass(
            workloads.WORKLOADS["config-batch"].prepare(OTHER_SEED), p
        )
    assert coarse.bornologous_profile is original
    assert all(not r.problems for r in p.records)
    metrics = recorder.layer_metrics()
    names = [name for name, _, _ in spans.LAYER_METRICS if name != "trace_overhead_ratio"]
    assert list(metrics) == names
    for name in ("cli.run.calls", "cli.bytes_written", "coarse.bornologous_profile.calls",
                 "cone.dijkstra.rows", "actions.map_calls", "odometer.odometer_step.calls",
                 "spaces.bfs_oracle.points", "spaces.pairwise.free-group.pairs_per_s"):
        assert metrics[name] > 0, name
    assert metrics["cli.run.calls"] == 9
    verdicts = {s[5] for s in recorder.spans}
    assert verdicts == {r.vid for r in p.records}


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )


def test_run_fails_without_the_library(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "config-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
