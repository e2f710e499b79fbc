"""Run one coarselab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src`` of the checkout that holds this
file.  One process, one thread of work: a closed loop that computes the
workload's verdicts one after another, with the BLAS/OpenMP pools
pinned to one thread.  Passes over the workload repeat until the next
one would end after ``--seconds`` (at least the workload's minimum).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same untraced passes, then one pass under the span recorder, and
reports the per-layer metrics plus ``trace_overhead_ratio``.  Every
verdict is checked, and digested against ``reference/``; the last line
of standard output is the JSON result, and the exit status is 0 only
when every verdict passed.  Result and span files go to ``out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 5

# name, unit of the end-to-end metrics of BENCHMARK.json, in order
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_workloads():
    """Pin the thread pools, put the checkout's ``src`` first on the path
    and import the workloads (and with them coarselab, numpy, scipy)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "coarselab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no coarselab source under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    os.chdir(ROOT)
    import coarselab
    import workloads

    if not Path(coarselab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: coarselab imported from {coarselab.__file__}, not {src}")
    return workloads


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(workload: str, seed: int, **extra) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pools": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        **extra,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import everything and build
    the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - started)
    return times


def run_passes(workloads, wl, inputs, seconds: float) -> list:
    passes = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        started = time.perf_counter()
        p = workloads.Pass(workdir=OUT)
        wl.run_pass(inputs, p)
        longest = max(longest, time.perf_counter() - started)
        passes.append(p)
        if len(passes) >= wl.min_passes and time.perf_counter() - began + longest > seconds:
            return passes


def judge(workloads, passes, reference: dict, seed: int) -> list[tuple[str, list[str]]]:
    """Failed verdicts with their problems: a failed check, a digest that
    differs from the reference, or one that differs between passes."""
    failures = []
    first: dict[str, str] = {}
    for p in passes:
        for r in p.records:
            problems = r.problems + workloads.reference_problems(r, reference, seed)
            if first.setdefault(r.vid, r.digest) != r.digest:
                problems.append("digest differs between passes")
            if problems:
                failures.append((r.vid, problems))
    return failures


def tail_percentile(n: int) -> float:
    """The highest of p99, p95, p90, p75 with at least ten of n verdicts
    beyond it; the maximum when there are too few verdicts for any."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 100


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after another; the
    exit status is the worst of theirs."""
    status = 0
    for name in load_workloads().WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workloads = load_workloads()
    import numpy as np

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed)
    if args.setup_only:
        return 0

    OUT.mkdir(exist_ok=True)
    setup_times = [] if args.trace else measure_setup(wl.name, args.seed)
    passes = run_passes(workloads, wl, inputs, args.seconds)
    untraced = passes[:]
    recorder = None
    if args.trace:
        import spans

        gc.collect()
        with spans.Recorder() as recorder:
            traced = workloads.Pass(workdir=OUT, recorder=recorder)
            wl.run_pass(inputs, traced)
        passes.append(traced)

    reference = workloads.load_reference(wl.name)
    failures = judge(workloads, passes, reference, args.seed)
    attempted = sum(len(p.records) for p in passes)
    last = passes[-1]
    digest = hashlib.sha256(
        "".join(f"{r.vid} {r.digest}\n" for r in sorted(last.records, key=lambda r: r.vid)).encode()
    ).hexdigest()

    # each verdict's latency and CPU time are its fastest over the
    # untraced passes: on a shared machine other tenants only ever slow a
    # verdict down, in spells that come and go within a run, so the
    # fastest of many passes holds steadier from run to run than their
    # median or one pass
    samples: dict[str, list[tuple[float, float]]] = {}
    for p in untraced:
        for r in p.records:
            samples.setdefault(r.vid, []).append((r.latency_s, r.cpu_s))
    typical = {vid: (min(lat for lat, _ in s), min(cpu for _, cpu in s))
               for vid, s in samples.items()}
    latencies_ms = [1000 * lat for lat, _ in typical.values()]
    tail_pct = tail_percentile(len(latencies_ms))
    tail = float(np.percentile(latencies_ms, tail_pct))
    beyond = sum(x > tail for x in latencies_ms)
    if args.trace:
        median_pass = statistics.median(p.wall_s for p in untraced)
        metrics = {**recorder.layer_metrics(), "trace_overhead_ratio": traced.wall_s / median_pass}
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": sum(lat for lat, _ in typical.values()),
            "cpu_s": sum(cpu for _, cpu in typical.values()),
            "verdict_p50_ms": float(np.percentile(latencies_ms, 50)),
            "verdict_tail_ms": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    result_stamp = stamp(wl.name, args.seed, seconds=args.seconds, trace=args.trace)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps({
        "stamp": result_stamp,
        "metrics": reported,
        "tail": {"percentile": tail_pct, "verdicts": len(latencies_ms), "beyond": beyond},
        "untraced_passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in untraced],
        "traced_pass_wall_s": traced.wall_s if args.trace else None,
        "setup_runs_s": setup_times,
        "digest": digest,
        "verdicts": [{"id": r.vid, "digest": r.digest, "seeded": r.seeded,
                      "untraced_ms": [1000 * lat for lat, _ in samples[r.vid]]}
                     for r in last.records],
        "files": last.files,
        "failures": [{"id": vid, "problems": probs} for vid, probs in failures],
    }, indent=1) + "\n")
    if recorder is not None:
        (OUT / f"{wl.name}-seed{args.seed}-spans.json").write_text(json.dumps({
            "stamp": result_stamp, "fields": spans.SPAN_FIELDS, "spans": recorder.spans,
        }) + "\n")

    for vid, probs in failures[:20]:
        print(f"FAILED {vid}: {'; '.join(probs)}")
    print(f"workload {wl.name} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} verdicts, {len(failures)} failed")
    print(f"digest {digest}")
    print(f"verdict_tail_ms is p{tail_pct:g} of {len(latencies_ms)} verdicts "
          f"(fastest of {len(untraced)} passes each), {beyond} beyond it")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    # string hashing is seeded per process unless pinned; a pinned seed
    # gives every run the same set and dict layouts, so the same work
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())
