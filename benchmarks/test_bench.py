"""Tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest benchmarks -q
"""

import json
import subprocess
import sys

import pytest

import gate
import run
from spans import LAYER_METRICS, TraceTargetMissing, Tracer

cli = run.load_package()
import rt0eig.eigensolver as eigensolver  # noqa: E402  (needs load_package)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _smoke(trace):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / BENCH["command"][1]), "--workload",
         "smoke", "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=120,
        cwd=run.ROOT)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_prints_every_metric_with_unit(trace, section):
    lines = _smoke(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # the panel's levels, however many studies fit in the time
    assert result["attempted"] == 2 * run.PANEL
    wanted = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"metric {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("fail_frac: ") for line in lines)
    machine = json.loads(lines[0].removeprefix("machine: "))
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads",
            "git_commit", "seed"} <= set(machine)


def _perturbed_study(monkeypatch, tmp_path, workload, levels, n, rel):
    """Run a study whose eigenvalue 1 on level n is scaled by 1 + rel."""
    real = eigensolver.solve_gevp

    def solve_gevp(S, D, k):
        vals, vecs, res = real(S, D, k)
        if S.shape[0] == 2 * n * n:
            vals = vals.copy()
            vals[0] *= 1.0 + rel
        return vals, vecs, res

    monkeypatch.setattr(eigensolver, "solve_gevp", solve_gevp)
    study = run.run_one(cli, workload, levels, 0, tmp_path)
    return gate.check(json.loads(study["reports"]["report.json"]))


@pytest.mark.parametrize("workload,levels,n,rel", [
    ("dense-superclose", [8, 16], 16, 1e-3),
    ("smoke", [2, 4], 4, 1e-7),
])
def test_gate_rejects_perturbed_eigenvalue(monkeypatch, tmp_path, workload,
                                           levels, n, rel):
    assert _perturbed_study(monkeypatch, tmp_path, workload, levels, n,
                            0.0) == {}
    assert n in _perturbed_study(monkeypatch, tmp_path, workload, levels, n,
                                 rel)


def test_gate_rejects_report_columns_that_disagree(tmp_path):
    study = run.run_one(cli, "dense-superclose", [8, 16], 0, tmp_path)
    report = json.loads(study["reports"]["report.json"])
    assert gate.check(report) == {}
    report["levels"][1]["eigenvalues"][3] *= 1.0 + 1e-6
    assert 16 in gate.check(report)


def test_tracer_fails_loudly_when_a_target_is_gone(monkeypatch):
    original = cli.assemble
    monkeypatch.delattr(cli, "l2_errors")
    with pytest.raises(TraceTargetMissing, match="l2_errors"):
        with Tracer("smoke").installed():
            pass
    assert cli.assemble is original


def test_traced_self_times_add_up_to_the_study(tmp_path):
    tracer = Tracer("dense-superclose")
    with tracer.installed():
        study = run.run_one(cli, "dense-superclose", [4, 8], 0, tmp_path,
                            tracer, 0)
    layers = tracer.study_layers(0)
    total = sum(layers[m] for m in LAYER_METRICS) + layers[
        "trace.uncovered_s"]
    assert total == pytest.approx(layers["trace.study_s"], abs=1e-9)
    assert layers["trace.study_s"] <= study["wall"]
    for name in ("mesh.build_s", "assembly.assemble_s",
                 "eigensolver.schur_s", "superclose.l2_s", "cli.report_s"):
        assert layers[name] > 0, name
    assert layers["eigensolver.mass_solve_rhs"] > 0
    names = {s["name"] for s in tracer.spans}
    assert {"eigensolver.la.cho_factor", "eigensolver.la.eigh",
            "eigensolver.recover_flux"} <= names
    assert {s["n"] for s in tracer.spans if s["name"] != "study"} >= {4, 8}
