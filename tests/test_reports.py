"""report.csv, report.json and the stdout summary, byte for byte against
the reference renderers in tests/oracles.py.

The reference walks the convergence table once per output; the package
renders all three from one set of per-(cluster, level) records.  Both run
on the same tables here, so the comparison does not depend on the BLAS
build that produced the numbers.
"""

import contextlib
import io
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import rt0eig.cli as cli
from rt0eig.cli import Level, StudyConfig, emit_reports, run_study
from rt0eig.extrapolation import (LevelSequence, SupercloseBlock,
                                  build_table)
import oracles

TIMING = 0.125  # fixed seconds per level, so the summary is deterministic


def _render_new(table, cfg, levels, out):
    cfg = replace(cfg, output_dir=out)
    paths = emit_reports(table, cfg, levels)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._print_summary(table, cfg, levels, TIMING * len(levels))
    return (paths["csv"].read_text(encoding="utf-8"),
            paths["json"].read_text(encoding="utf-8"), buf.getvalue())


def _render_old(table, cfg, results, failures):
    return (oracles.csv_text(table),
            oracles.json_text(table, cfg, results, failures),
            oracles.summary_text(table, cfg, results, failures,
                                 [TIMING] * len(results),
                                 TIMING * (len(results) + len(failures))))


def _assert_same(table, cfg, results, failures, out):
    """The package's renderers on Level records, each completed level
    TIMING seconds long, against the reference renderers on the results
    and failure dicts they stand for."""
    levels = ([Level(n=res.n, result=res, seconds=TIMING) for res in results]
              + [Level(n=f["n"], error=f["error"]) for f in failures])
    new = _render_new(table, cfg, levels, out)
    old = _render_old(table, cfg, results, list(failures))
    for name, got, want in zip(("csv", "json", "summary"), new, old):
        assert got == want, f"{name} differs from the reference renderer"


STUDIES = {
    "laplace-superclose": dict(preset="laplace", levels=[2, 4, 8, 16], k=6,
                               compute_superclose=True),
    # two levels: no extrapolated orders, empty order_extrap arrays
    "shifted-two-levels": dict(preset="shifted", levels=[4, 8], k=3),
    "variable-self": dict(preset="variable", levels=[2, 4, 8], k=4),
    "laplace-iterative": dict(preset="laplace", levels=[4, 8, 16], k=4,
                              solver="iterative"),
}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_reports_match_reference(name, tmp_path):
    cfg = StudyConfig(output_dir=tmp_path / "run", **STUDIES[name])
    table, levels = run_study(cfg)
    _assert_same(table, cfg, [lv.result for lv in levels], [],
                 tmp_path / "render")


# synthetic tables ----------------------------------------------------------

def _synthetic(values, clusters, reference=None):
    """Table and per-level results from a (k, L) array of eigenvalues."""
    values = np.asarray(values, dtype=float)
    ns = [2 * 2 ** i for i in range(values.shape[1])]
    seq = LevelSequence(
        levels=[(n, 1.0 / n, values[:, i]) for i, n in enumerate(ns)],
        matched=values, clusters=clusters)
    table = build_table(seq, reference=reference)
    results = [
        SimpleNamespace(
            n=n, h=1.0 / n, num_edges=3 * n * n + 2 * n,
            num_triangles=2 * n * n, eigenvalues=values[:, i],
            residuals=1e-15 * np.arange(1, len(values) + 1))
        for i, n in enumerate(ns)]
    return table, results


def _h2(limit, c, levels=4):
    """limit + c h^2 on the levels n = 2, 4, 8, ..."""
    return [limit + c / (2 * 2 ** i) ** 2 for i in range(levels)]


CFG = StudyConfig(preset="laplace", levels=[2, 4, 8, 16], k=4)


def test_cluster_row_matches_reference(tmp_path):
    values = [_h2(2.0, 0.7), _h2(5.0, 1.1), _h2(5.0, 1.3), _h2(8.0, 2.9)]
    table, results = _synthetic(values, [[0], [1, 2], [3]],
                                reference=np.array([2.0, 5.0, 5.0, 8.0]))
    assert [row.label for row in table.rows] == ["1", "2-3", "4"]
    _assert_same(table, CFG, results, [], tmp_path)


def test_saturated_orders_match_reference(tmp_path):
    # row 1 hits its reference exactly, so every order it touches is NaN;
    # row 2 saturates only from the third level on
    exact = [3.0] * 4
    late = [7.0 + 0.5, 7.0 + 0.125, 7.0, 7.0]
    values = [_h2(1.0, 0.3), exact, late]
    table, results = _synthetic(values, [[0], [1], [2]],
                                reference=np.array([1.0, 3.0, 7.0]))
    assert np.isnan(table.rows[1].order_raw).all()
    assert np.isnan(table.rows[1].order_extrap).all()
    assert np.isnan(table.rows[2].order_raw[-1])
    _assert_same(table, replace(CFG, k=3), results, [], tmp_path)


def test_superclose_on_cluster_row_matches_reference(tmp_path):
    # the first mode sits in a two-member cluster, so that row carries the
    # superclose columns on every level
    values = [_h2(4.0, 0.9), _h2(4.0, 1.0), _h2(9.0, 2.0)]
    table, results = _synthetic(values, [[0, 1], [2]])
    levels = np.arange(4)
    table.superclose = SupercloseBlock(
        mode=(1, 1),
        distance=0.3 * 4.0 ** -levels,
        err_u=0.2 * 2.0 ** -levels,
        err_sigma=0.9 * 2.0 ** -levels)
    assert table.rows[0].label == "1-2"
    _assert_same(table, replace(CFG, k=3, compute_superclose=True), results,
                 [], tmp_path)


def test_failed_level_without_table_matches_reference(tmp_path):
    # k = 2 at n = 1 is k = T, which only the dense path takes
    cfg = StudyConfig(preset="laplace", levels=[2, 4], k=2, solver="dense",
                      output_dir=tmp_path / "run")
    _, levels = run_study(replace(cfg, levels=[1, 2]))
    failures = [{"n": 4, "error": "synthetic breakdown"}]
    _assert_same(None, cfg, [levels[-1].result], failures,
                 tmp_path / "render")
