"""Checks on the package's own source code."""

import ast
from pathlib import Path

import coinfo


def test_no_assert_statements():
    # invariants are typed checks (InternalCheckError, the ValidationError
    # family) that python -O keeps; an assert statement would be stripped
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert files and not found, f"assert statements in src/coinfo: {found}"


# numpy names that may run a BLAS kernel, whose sums depend on the thread
# count and the library build
BLAS_NAMES = {"dot", "matmul", "tensordot", "inner", "linalg"}


def test_no_blas_kernels():
    # the solvers are bit-reproducible for any thread count because no BLAS
    # kernel runs: every einsum passes a literal optimize=False (einsum's
    # optimizer may hand a contraction to tensordot), and nothing calls @,
    # np.dot, np.matmul, np.tensordot, np.inner or np.linalg
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    found = []
    einsums = 0
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES and (
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            ):
                found.append(f"{where} np.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found += [f"{where} from numpy import {a.name}" for a in node.names if a.name in BLAS_NAMES]
            elif isinstance(node, ast.Import):
                found += [f"{where} import {a.name}" for a in node.names if a.name.startswith("numpy.linalg")]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum":
                einsums += 1
                if not any(
                    kw.arg == "optimize" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                    for kw in node.keywords
                ):
                    found.append(f"{where} einsum without a literal optimize=False")
    assert einsums and not found, f"possible BLAS kernels in src/coinfo: {found}"


def test_no_per_entry_libm_maps():
    # h_b has one numpy body; a Python map of a math function over array
    # entries would be a second, per-entry libm rounding, and slow
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    found = [
        f"{path.name}:{i}"
        for path in files
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "map(math." in line
    ]
    assert files and not found, f"per-entry math maps in src/coinfo: {found}"


def test_bitwise_stop_only_in_repeats():
    # every batch of bottleneck updates stops at the first update that
    # repeats the one before it bitwise, and that rule lives in one driver,
    # optimize._repeats: no other code compares arrays by their bytes
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    found = []

    def scan(node, where, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, where, child.name)
                continue
            if isinstance(child, ast.Compare) and any(
                isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "tobytes" for n in ast.walk(child)
            ):
                found.append(f"{where}:{child.lineno} in {func}")
            scan(child, where, func)

    for path in files:
        scan(ast.parse(path.read_text(), filename=str(path)), path.name, None)
    assert len(found) == 1 and found[0].startswith("optimize.py:") and found[0].endswith(" in _repeats"), (
        f"bitwise comparisons in src/coinfo outside optimize._repeats: {found}"
    )
