"""Structure of the package itself: its modules import one another without
a cycle, imports inside function bodies included, the assembled system
stays plain data through a solve, and it ships no definition that only the
tests use and no private function that nothing calls."""

import ast
import dataclasses
import graphlib
from collections import Counter
from pathlib import Path

import pytest

import rt0eig
from rt0eig import (AssembledSystem, UNIT_SQUARE, assemble,
                    build_structured_mesh, get_preset,
                    solve_mixed_eigenproblem)

PACKAGE = Path(rt0eig.__file__).resolve().parent


def _imported_names(node):
    """Absolute dotted names an import statement refers to: for
    `from X import a` both X and X.a, since a may be a submodule."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    assert node.level <= 1, "the package is flat"
    base = node.module if node.level == 0 else ".".join(
        filter(None, ["rt0eig", node.module]))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def import_graph():
    """Module -> the package's modules it imports anywhere in its source.
    "__init__" stands for the package itself, which `from . import x`
    reads x from."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for name in _imported_names(node):
                parts = name.split(".")
                if parts[0] == "rt0eig":
                    deps.add(parts[1] if len(parts) > 1
                             and parts[1] in modules else "__init__")
    return graph


def test_import_graph_has_no_cycle():
    graph = import_graph()
    assert graph["__init__"] >= {"assembly", "eigensolver", "mesh"}
    assert graph["cli"] >= {"__init__", "eigensolver"}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


def test_superclose_imports_nothing_from_the_solver():
    """The superclose measures only integrate, with positive weights, so
    they have no failure of the solver's kind to raise."""
    assert "eigensolver" not in import_graph()["superclose"]


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_assembled_system_holds_only_its_fields_after_a_solve(method):
    """It holds what assemble computes: the multipliers' order and the
    triangles' edges are the mesh's, which the iterative solver takes
    with the system."""
    assert [f.name for f in dataclasses.fields(AssembledSystem)] == [
        "M", "B", "C", "D", "num_edges", "num_triangles", "m_vals",
        "div_vals"]
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    sys_ = assemble(mesh, get_preset("laplace"))
    solve_mixed_eigenproblem(mesh, sys_, 2, method=method)
    assert set(vars(sys_)) == {
        f.name for f in dataclasses.fields(AssembledSystem)}


def test_solve_mixed_eigenproblem_is_the_one_public_solver():
    """The solver paths' building blocks stay in rt0eig.eigensolver, where
    the dispatcher calls them, and the package exports the dispatcher."""
    internals = {"flux_mass_factor", "flux_mass_solver", "schur_complement",
                 "recover_flux", "solve_gevp", "solve_gevp_iterative"}
    assert "solve_mixed_eigenproblem" in rt0eig.__all__
    assert internals.isdisjoint(rt0eig.__all__)
    assert internals.isdisjoint(vars(rt0eig))
    assert all(callable(getattr(rt0eig.eigensolver, name))
               for name in internals)


def _public_definitions():
    """(qualified name, name) of every public function, class and method
    defined at the top level of the package's modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _names_referenced_by_the_package():
    """Every name and attribute the package's modules read, bar the
    namespace module __init__, which only re-exports."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_public_definition_serves_only_the_tests():
    """Code that only the tests call belongs in tests/oracles.py: every
    public definition is used by the package."""
    used = _names_referenced_by_the_package()
    unused = [qual for qual, name in _public_definitions()
              if name not in used]
    assert unused == []


def _name_counts(node):
    """How often each name and attribute is read under an AST node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_private_function_is_left_uncalled():
    """Every module-level private function is read, as a name or an
    attribute, by package code outside its own definition: a helper whose
    last call went is deleted with it."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    counts = sum((_name_counts(tree) for tree in trees.values()), Counter())
    unused = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_")
              and counts[node.name] == _name_counts(node)[node.name]]
    assert unused == []
