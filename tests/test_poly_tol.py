"""The polyhedral layer reads one tolerance, `policy.POLY_TOL`: no function
in linsolve, polyhedra or optcond declares a `tol` parameter, except those
whose callers pass more than one value."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "regkit"
ALLOWED = {"Polyhedron.contains", "Multipliers.nonzero",
           "sampled_tangent_membership", "sampled_second_order_membership"}


def _tol_functions(node: ast.AST, prefix: str = "") -> list[str]:
    """Qualified names of the functions under node with a `tol` parameter."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found += _tol_functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            if any(p.arg == "tol"
                   for p in a.posonlyargs + a.args + a.kwonlyargs):
                found.append(prefix + child.name)
            found += _tol_functions(child, f"{prefix}{child.name}.")
    return found


@pytest.mark.parametrize("name", ["linsolve.py", "polyhedra.py",
                                  "optcond.py"])
def test_only_multi_valued_tolerances_are_parameters(name):
    tree = ast.parse((SRC / name).read_text())
    assert sorted(set(_tol_functions(tree)) - ALLOWED) == []
