"""Source-level rules for the library package itself."""

import ast
import sys
from pathlib import Path

import rootstrata

SRC = Path(__file__).resolve().parents[1] / "src" / "rootstrata"


def _absolute_imports(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_assert_and_stdlib_only_imports():
    """Invariants raise explicitly (assert vanishes under -O); the runtime is stdlib only."""
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    problems = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                problems.append(f"{path.name}:{node.lineno}: assert statement")
            for name in _absolute_imports(node):
                if name.split(".")[0] not in sys.stdlib_module_names:
                    problems.append(f"{path.name}:{node.lineno}: imports {name}")
    assert not problems, "\n".join(problems)


def _tests_for_dpoly(node):
    """Is node a call isinstance(x, ...) whose type argument names DPoly?"""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    return any((isinstance(n, ast.Name) and n.id == "DPoly")
               or (isinstance(n, ast.Attribute) and n.attr == "DPoly")
               for n in ast.walk(node.args[1]))


def test_only_the_scalar_modules_test_for_dpoly():
    """Every coefficient is a DPoly; dpoly alone decides what a scalar is."""
    problems = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "dpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _tests_for_dpoly(node):
                problems.append(f"{path.name}:{node.lineno}: isinstance(..., DPoly)")
    assert not problems, "\n".join(problems)


def _names(tree):
    """Every identifier a module binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name


def test_only_crs_decodes_its_packed_level():
    """The digit format and its bound live in crs: no other module names them."""
    problems = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "crs.py":
            continue
        for lineno, name in _names(ast.parse(path.read_text(), str(path))):
            if name in ("_digits", "_packed_level"):
                problems.append(f"{path.name}:{lineno}: names {name}")
    assert not problems, "\n".join(problems)


def test_the_package_exports_the_names_its_imports_bind():
    """__all__ is no second list: it is the sorted names the `from .x import` lines bind."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert rootstrata.__all__ == sorted(bound)
    assert not any(isinstance(node, ast.List) for node in ast.walk(tree))


def test_only_the_scalars_and_the_result_base_define_eq():
    """The result classes share dpoly._Result's field-wise equality; DPoly, MultiPoly
    and Partition keep their own, which also compare with scalars or tuples."""
    allowed = {("dpoly.py", "DPoly"), ("dpoly.py", "_Result"),
               ("multipoly.py", "MultiPoly"), ("partitions.py", "Partition")}
    problems = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef) or (path.name, node.name) in allowed:
                continue
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__eq__":
                    problems.append(f"{path.name}:{f.lineno}: {node.name} defines __eq__")
    assert not problems, "\n".join(problems)


# perfbench's tracer patches every module's binding of substitute_homogeneous
# (test_tracer_patches_every_binding pins them), so these three modules keep a
# binding they never read until the tracer patches the defining module alone
UNREAD_IMPORTS = {("crs.py", "substitute_homogeneous"), ("flagcalc.py", "substitute_homogeneous"),
                  ("universal.py", "substitute_homogeneous")}


def test_no_module_imports_a_name_it_never_uses():
    """A top-level import binding no line of its module reads is dead; __init__.py
    imports to export."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unread.add((path.name, name))
    assert unread == UNREAD_IMPORTS
