"""The benchmark's tracer (benchmarks/spans.py) patches package functions by
name and reads the mesh from fixed argument positions.  These checks make a
refactor that breaks those names or positions fail the test suite, not only
the traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import rt0eig
from rt0eig import UNIT_SQUARE, assemble, build_structured_mesh, get_preset
from rt0eig.eigensolver import _factor_multipliers, _hybridize
from oracles import nested_dissection_k_factor

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", ROOT / "benchmarks" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_under_test_is_this_tree():
    assert Path(rt0eig.__file__).resolve().parent == ROOT / "src" / "rt0eig"


def test_every_trace_target_resolves(spans):
    for path, attr in [t[:2] for t in spans.TARGETS] + [spans.LEVEL_TARGET]:
        assert callable(getattr(spans._resolve(path), attr, None)), (
            f"{path}.{attr}")


def test_traced_argument_positions(spans):
    cli = spans._resolve("rt0eig.cli")
    params = lambda fn: list(inspect.signature(fn).parameters)
    # the tracer tags spans with args[1].n of p0_project, args[2].n of
    # l2_errors, and calls run_level as fn(cfg, prob, n)
    assert params(cli.p0_project)[1] == "mesh"
    assert params(cli.l2_errors)[2] == "mesh"
    assert params(cli.run_level)[:3] == ["cfg", "prob", "n"]


LEVELS = [4, 8]


def _traced_study(spans, tmp_path_factory, solver):
    """Spans and per-layer totals of a traced laplace 4 8 study with
    superclose."""
    cli = spans._resolve("rt0eig.cli")
    tracer = spans.Tracer(solver)
    cfg = cli.StudyConfig(preset="laplace", levels=LEVELS, k=3,
                          solver=solver, compute_superclose=True,
                          output_dir=tmp_path_factory.mktemp("traced"))
    with tracer.installed(), tracer.study(0):
        cli.run_study(cfg)
    return tracer, tracer.study_layers(0)


@pytest.fixture(scope="module")
def traced_iterative(spans, tmp_path_factory):
    return _traced_study(spans, tmp_path_factory, "iterative")


@pytest.fixture(scope="module")
def traced_dense(spans, tmp_path_factory):
    return _traced_study(spans, tmp_path_factory, "dense")


def test_every_trace_target_fires(spans, traced_dense, traced_iterative):
    """A target that a study never calls would leave its work in
    trace.uncovered_s."""
    fired = {s["name"] for tracer, _ in (traced_dense, traced_iterative)
             for s in tracer.spans}
    targets = {spans._span_name(path, attr) for path, attr, _ in spans.TARGETS}
    assert targets - fired == set()


def test_iterative_solver_calls_run_inside_solve_gevp_iterative(
        traced_iterative):
    """The hybridization, the refinement and the checks around eigsh and
    splu are timed by the solve_gevp_iterative span."""
    tracer, _ = traced_iterative
    name = {s["id"]: s["name"] for s in tracer.spans}
    inner = [s for s in tracer.spans if s["name"] in (
        "eigensolver.spla.eigsh", "eigensolver.spla.splu")]
    assert len(inner) == 2 * len(LEVELS)
    for s in inner:
        assert name[s["parent"]] == "eigensolver.solve_gevp_iterative"


def test_traced_iterative_study_factorizes_once_per_level(traced_iterative):
    """The tracer wraps eigsh's positional operator and counts splu fill;
    the iterative path factorizes only the multiplier system."""
    tracer, layers = traced_iterative
    assert layers["eigensolver.op_applies"] > 0
    assert layers["eigensolver.factor_fill"] > 0
    assert layers["eigensolver.mass_solve_rhs"] == 0
    splu_levels = [s["n"] for s in tracer.spans
                   if s["name"] == "eigensolver.spla.splu"]
    assert sorted(splu_levels) == LEVELS
    names = {s["name"] for s in tracer.spans}
    assert "eigensolver.spla.eigsh" in names
    assert not names & {"eigensolver.flux_mass_solver",
                        "eigensolver.la.cho_factor",
                        "eigensolver.recover_flux"}


def test_traced_fill_is_the_multiplier_factors(traced_iterative):
    """The traced fill is that of the per-level LUs of H, and below that of
    the nested-dissection LU of the whole saddle-point block."""
    _, layers = traced_iterative
    h_fill = k_fill = 0
    for n in LEVELS:
        sys_ = assemble(build_structured_mesh(UNIT_SQUARE, n),
                        get_preset("laplace"))
        h_lu = _factor_multipliers(_hybridize(
            build_structured_mesh(UNIT_SQUARE, n), sys_)[2])
        k_lu = nested_dissection_k_factor(
            build_structured_mesh(UNIT_SQUARE, n), sys_)
        h_fill += h_lu.L.nnz + h_lu.U.nnz
        k_fill += k_lu.L.nnz + k_lu.U.nnz
    assert layers["eigensolver.factor_fill"] == h_fill
    assert h_fill < k_fill
