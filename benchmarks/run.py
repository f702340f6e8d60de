#!/usr/bin/env python3
"""Convergence-study benchmark of rt0eig.

Run from the repository root:

    python3 benchmarks/run.py --workload dense-superclose --seed 1 \
        --seconds 50 --trace 0

The package is imported from ./src of the tree the script sits in, never
from an installed copy.  Each workload is a closed loop: one study at a
time, from this process, for about --seconds.  A run has a fixed panel of
PANEL study seeds, --seed * 1000 + i for i < PANEL (the ARPACK start
vector), and goes round the panel, the whole of it at least once, until the
time is up.  Every repeat of a seed must write report.csv and
report.json byte-identical to its first run.  With --trace 1 each seed runs
untraced and then traced (see spans.py), and the per-layer metrics (means
over the traced studies, so that they add up to the traced study_s) replace
the end-to-end ones.

Every study's report.json goes through the correctness gate (gate.py).  A
level counts as failed when it raised, was skipped after a raise, or failed
the gate.  The last line of stdout is one JSON object: correct, attempted
and failed (the levels of the panel's studies, so that they depend on
--seed alone and not on how many studies fit in the time), and the metrics
with their units.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import gate
from spans import COUNT_METRICS, LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

K = 4
# Why each study: see BENCHMARK.json.  "smoke" is for the benchmark's own
# tests only.
WORKLOADS = {
    "dense-superclose": dict(preset="laplace", levels=[8, 16, 32],
                             solver="dense", compute_superclose=True),
    "sparse-laplace-reach": dict(preset="laplace", levels=[16, 32, 64, 128],
                                 solver="iterative", compute_superclose=True),
    "smoke": dict(preset="variable", levels=[2, 4], solver="dense",
                  compute_superclose=False),
}
# Distinct study seeds of one run.  The seed decides where a
# sparse-laplace-reach study fails: at n=64 (about 2.5 s on 2 vCPUs), or for
# about 29% of seeds at n=128 (7 to 11 s, with up to 15% more dofs_per_s).
# Four seeds mix the two cases within a run; with two the share of n=128
# studies moved run medians by more than the host's own drift.  Even four
# studies that reach n=128 fit in one --seconds.  dense-superclose does not
# use the seed.
PANEL = 4
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {"study_s": "s", "dofs_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def load_package():
    """Put ./src first on sys.path and import the study driver from it."""
    if not (SRC / "rt0eig" / "cli.py").is_file():
        sys.exit(f"benchmark: no rt0eig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rt0eig.cli
    if SRC not in Path(rt0eig.cli.__file__).resolve().parents:
        sys.exit(f"benchmark: imported rt0eig from {rt0eig.cli.__file__}, "
                 f"not from {SRC}")
    return rt0eig.cli


def level_dofs(n):
    """Edges plus triangles of the structured n x n mesh."""
    return (3 * n * n + 2 * n) + 2 * n * n


def run_one(cli, workload, levels, seed, outdir, tracer=None, study_id=None):
    """One run_study call; returns wall seconds, report bytes and error."""
    outdir.mkdir(parents=True, exist_ok=True)
    for old in outdir.glob("report.*"):
        old.unlink()
    cfg = cli.StudyConfig(k=K, seed=seed, output_dir=outdir,
                          **{**WORKLOADS[workload], "levels": levels})
    error = None
    gc.collect()  # garbage of the previous study is not this study's cost
    with redirect_stdout(io.StringIO()):
        span = tracer.study(study_id) if tracer else nullcontext()
        start = time.perf_counter()
        with span:
            try:
                cli.run_study(cfg)
            except cli.NumericalError as exc:
                error = str(exc)
        wall = time.perf_counter() - start
    reports = {name: (outdir / name).read_bytes()
               for name in ("report.csv", "report.json")}
    return {"wall": wall, "reports": reports, "error": error,
            "seed": seed, "study": study_id, "traced": tracer is not None}


def judge(study, levels):
    """Attach the gate's verdict and the completed-level counts."""
    report = json.loads(study["reports"]["report.json"])
    bad = gate.check(report)
    good = [lv["n"] for lv in report["levels"]
            if lv["status"] == "ok" and lv["n"] not in bad]
    study.update(gate=bad, good=good, failed=len(levels) - len(good),
                 good_dofs=sum(level_dofs(n) for n in good))
    return study


def closed_loop(cli, workload, seed, seconds, tracer):
    """Studies, grouped by study seed, for about `seconds`.

    Goes round the panel of study seeds, all of it at least once.  With a
    tracer every seed runs twice, untraced and then traced.  After the
    first round a seed starts only if a group of average length still fits,
    so a run does not overshoot by a whole slow study.
    """
    levels = WORKLOADS[workload]["levels"]
    groups = []
    start = time.perf_counter()
    while True:
        i = len(groups)
        study_seed = seed * 1000 + i % PANEL
        group = [run_one(cli, workload, levels, study_seed,
                         OUT / workload / "a")]
        if tracer:
            with tracer.installed():
                group.append(run_one(cli, workload, levels, study_seed,
                                     OUT / workload / "b", tracer, i))
        groups.append([judge(study, levels) for study in group])
        elapsed = time.perf_counter() - start
        if (len(groups) >= PANEL
                and elapsed * (len(groups) + 1) / len(groups) > seconds):
            return groups


def child_seconds(args):
    """Wall seconds of a child process.

    Waits without a timeout, because Popen.wait(timeout) polls in steps of
    up to 50 ms; a timer kills a child that hangs instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(args, env={**os.environ, "PYTHONPATH": str(SRC)})
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
    elapsed = time.perf_counter() - start
    if code:
        raise subprocess.CalledProcessError(code, args)
    return elapsed


def setup_seconds():
    """Median wall time of a fresh interpreter importing rt0eig.cli."""
    args = [sys.executable, "-c", "import rt0eig.cli"]
    child_seconds(args)  # compiles the bytecode caches of a fresh tree
    return statistics.median(child_seconds(args)
                             for _ in range(SETUP_REPEATS))


def peak_rss_mb(workload):
    """Peak resident set of a fresh process that runs one study.

    The study seed is always 0, the configuration default: on
    sparse-laplace-reach the seed decides whether a study stops at n=64 or
    goes on to n=128, which moves the peak by half.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--rss-child"],
        check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


def rss_child(workload):
    """Run one study and print this process's peak resident set in MB.

    VmHWM, not ru_maxrss: on Linux ru_maxrss keeps the parent's high-water
    mark across fork and exec, so it would report the benchmark's own size.
    """
    cli = load_package()
    run_one(cli, workload, WORKLOADS[workload]["levels"], 0,
            OUT / workload / "rss")
    status = Path("/proc/self/status").read_text().splitlines()
    kb = next(int(line.split()[1]) for line in status
              if line.startswith("VmHWM:"))
    print(kb / 1024.0)


def machine_record(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_threads = next((os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                        if os.environ.get(v)), None)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # OpenBLAS uses one thread per available core unless told otherwise
        "blas_threads": int(env_threads) if env_threads
        else len(os.sched_getaffinity(0)),
        "blas_threads_source": "environment" if env_threads else "default",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def tail(values):
    """(label, value) of the highest percentile with ten samples beyond it;
    the maximum when there are fewer than twenty samples."""
    if len(values) < 20:
        return "max", max(values)
    pct = int(100 * (1 - 10 / len(values)))
    return f"p{pct}", statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(workload, studies, lines):
    levels = WORKLOADS[workload]["levels"]
    complete = [s["wall"] for s in studies if s["failed"] == 0]
    dofs = [s["good_dofs"] / s["wall"] for s in studies]
    if complete:
        study_s = statistics.median(complete)
        label, top = tail(complete)
        lines.append(f"study_s: median {study_s:.4f} s, {label} {top:.4f} s, "
                     f"n={len(complete)} completed studies")
    else:
        # No study completes, so none gives a sample.  Each study instead
        # projects the time of a complete study from its throughput.
        total = sum(level_dofs(n) for n in levels)
        projected = [s["wall"] * total / s["good_dofs"] for s in studies
                     if s["good_dofs"]] or [s["wall"] for s in studies]
        study_s = statistics.median(projected)
        lines.append(f"study_s: no completed study of {len(studies)}; "
                     f"median projected wall {study_s:.4f} s")
    lines.append(f"dofs_per_s: median {statistics.median(dofs):.1f} 1/s, "
                 f"min {min(dofs):.1f} 1/s, n={len(dofs)} studies")
    return {"study_s": study_s, "dofs_per_s": statistics.median(dofs)}


def per_layer(tracer, groups, lines):
    rows = [tracer.study_layers(b["study"]) for _, b in groups]
    names = LAYER_METRICS + COUNT_METRICS + ["trace.uncovered_s",
                                             "trace.study_s"]
    values = {name: statistics.fmean(r[name] for r in rows)
              for name in names}
    values["trace.overhead_s"] = statistics.median(
        b["wall"] - a["wall"] for a, b in groups)
    covered = sum(values[m] for m in LAYER_METRICS) + values[
        "trace.uncovered_s"]
    lines.append(f"trace: layer self times + uncovered = {covered:.6f} s, "
                 f"traced study_s = {values['trace.study_s']:.6f} s "
                 f"(means over {len(rows)} traced studies)")
    return values


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_child:
        return rss_child(args.workload)

    cli = load_package()
    workload = args.workload
    tracer = Tracer(workload) if args.trace else None
    # warm-up on a tiny study of the same kind loads lazy imports
    run_one(cli, workload, [2, 4], 0, OUT / workload / "warm")
    groups = closed_loop(cli, workload, args.seed, args.seconds, tracer)

    studies = [s for group in groups for s in group]
    first = {}  # study seed -> its first study
    for s in studies:
        first.setdefault(s["seed"], s)
    attempted = len(WORKLOADS[workload]["levels"]) * len(first)
    failed = sum(s["failed"] for s in first.values())
    identical = all(s["reports"] == first[s["seed"]]["reports"]
                    for s in studies)
    mismatches = {n: why for s in studies for n, why in s["gate"].items()}
    machine = machine_record(args.seed)
    lines = [f"machine: {json.dumps(machine)}",
             f"workload: {workload} {json.dumps(WORKLOADS[workload])} k={K}",
             f"studies: {len(studies)} ({len(first)} seeds), "
             f"levels attempted {attempted}, failed {failed}",
             f"fail_frac: {failed / attempted:.4f} 1",
             "reports_identical: " + (str(identical).lower()
                                      if len(studies) > len(first)
                                      else "not checked; no seed repeated")]
    lines += [f"gate: level n={n} {why}" for n, why in sorted(
        mismatches.items())]
    errors = sorted({s["error"] for s in studies if s["error"]})
    lines += [f"raised: {e}" for e in errors]
    for s in studies:
        lines.append(f"study: seed {s['seed']} wall {s['wall']:.4f} s, "
                     f"levels ok {s['good']}"
                     + (", traced" if s["traced"] else ""))

    if args.trace:
        metrics = per_layer(tracer, groups, lines)
        tracer.write(OUT / f"trace-{workload}-seed{args.seed}.json",
                     {"machine": machine, "workload": workload,
                      "metrics": metrics})
    else:
        metrics = end_to_end(workload, studies, lines)
        metrics["peak_rss_mb"] = peak_rss_mb(workload)
        metrics["setup_s"] = setup_seconds()
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit_of(name)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": identical and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
