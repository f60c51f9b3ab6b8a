"""Checks on the package's own source code."""

import ast
import io
import re
import tokenize
from pathlib import Path

import coinfo


def test_version_matches_pyproject():
    # the [project] version and coinfo.__version__ are bumped together. A
    # regex reads it: tomllib is Python 3.11+ and the package supports 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    versions = re.findall(r'^version\s*=\s*"([^"]*)"', project.group(1), re.M)
    assert versions == [coinfo.__version__]


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


def test_one_stop_rule_in_iterate():
    # every solve stops a member at the first update that moves it by at
    # most optimize._STEP, and that rule lives in one driver,
    # optimize._iterate: nothing else reads _STEP, and no code compares
    # arrays by their bytes
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    reads, bitwise = [], []

    def scan(node, where, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, where, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "_STEP" and isinstance(child.ctx, ast.Load):
                reads.append(f"{where}:{child.lineno} in {func}")
            if isinstance(child, ast.Compare) and any(
                isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "tobytes" for n in ast.walk(child)
            ):
                bitwise.append(f"{where}:{child.lineno} in {func}")
            scan(child, where, func)

    for path in files:
        scan(ast.parse(path.read_text(), filename=str(path)), path.name, None)
    assert reads and all(r.startswith("optimize.py:") and r.endswith(" in _iterate") for r in reads), (
        f"_STEP read outside optimize._iterate: {reads}"
    )
    assert not bitwise, f"bitwise comparisons in src/coinfo: {bitwise}"


def test_unchecked_type_class_has_one_caller():
    # TypeClass._unchecked skips the constructor's checks, so it may only
    # build the types that enumerate_types makes itself, never a value
    # that comes from outside: it is referred to once, inside
    # typicality.enumerate_types
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    uses = []

    def scan(node, where, funcs):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, where, funcs + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "_unchecked") or (
                isinstance(child, ast.Name) and child.id == "_unchecked"
            ):
                uses.append((f"{where}:{child.lineno}", funcs))
            scan(child, where, funcs)

    for path in files:
        scan(ast.parse(path.read_text(), filename=str(path)), path.name, ())
    assert len(uses) == 1, f"TypeClass._unchecked referred to {len(uses)} times: {uses}"
    (where, funcs), = uses
    assert where.startswith("typicality.py:") and funcs[:1] == ("enumerate_types",), (
        f"TypeClass._unchecked used outside typicality.enumerate_types: {uses}"
    )


def test_one_float_format():
    # every real that a command writes goes through one "%.15g" constant,
    # cli._FLOAT_FORMAT, so no writer can round its values another way
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    found = [
        f"{path.name}:{i}"
        for path in files
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "15g" in line
    ]
    assert len(found) == 1 and found[0].startswith("cli.py:"), f"float formats in src/coinfo: {found}"


def test_one_hull_body():
    # which points are knots of an upper concave envelope, which point
    # wins at equal abscissae and when a collinear point goes is decided in
    # one module, optimize: no other module defines a function named for a
    # hull or an envelope, or computes the turn of three points,
    # (b0 - a0) (c1 - a1) - (b1 - a1) (c0 - a0)
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))

    def difference(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)

    def product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (
            difference(node.left) and difference(node.right)
        )

    def hull_code(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return re.search("hull|envelope|concave|vertices", node.name)
        return difference(node) and product(node.left) and product(node.right)

    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if hull_code(node)
    ]
    assert found and all(f.startswith("optimize.py:") for f in found), f"hull code outside optimize: {found}"


def found_in(match):
    """(file:line, names of the enclosing functions) of every node of the
    src/coinfo modules for which match(node) holds."""
    found = []

    def scan(node, where, funcs):
        for child in ast.iter_child_nodes(node):
            inner = funcs + (child.name,) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else funcs
            if match(child):
                found.append((f"{where}:{child.lineno}", inner))
            scan(child, where, inner)

    for path in sorted(Path(coinfo.__file__).parent.rglob("*.py")):
        scan(ast.parse(path.read_text(), filename=str(path)), path.name, ())
    return found


def is_call(node, name):
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def where(found):
    # (module, enclosing functions) of each find
    return [(at.split(":")[0], funcs) for at, funcs in found]


def test_draw_cells_read_only_in_blocked_stats():
    # draws and solves alike are scored a block of at most
    # optimize._DRAW_CELLS joint cells at a time by one routine,
    # optimize._blocked_stats: nothing else reads _DRAW_CELLS
    reads = found_in(lambda n: isinstance(n, ast.Name) and n.id == "_DRAW_CELLS" and isinstance(n.ctx, ast.Load))
    assert reads and set(where(reads)) == {("optimize.py", ("_blocked_stats",))}, f"_DRAW_CELLS reads: {reads}"


def test_one_two_axis_check():
    # a source p(x, z) is checked for two axes in one place,
    # probability._two_axis, so every entry point raises the same AxisError
    def check(node):
        return (
            isinstance(node, ast.Compare)
            and is_call(node.left, "len")
            and getattr(node.left.args[0], "attr", None) == "axes"
            and any(isinstance(c, ast.Constant) and c.value == 2 for c in node.comparators)
        )

    found = found_in(check)
    assert where(found) == [("probability.py", ("_two_axis",))], f"two-axis checks: {found}"


def test_one_dsbs_closed_form():
    # log2 - h_b(alpha*p*beta) has one body, regions._sb_mu: nothing else
    # convolves a convolution, and sb_surface reads its cells from it
    nested = found_in(lambda n: is_call(n, "_bconv") and n.args and is_call(n.args[0], "_bconv"))
    assert where(nested) == [("regions.py", ("_sb_mu",))], f"nested convolutions: {nested}"
    assert ("regions.py", ("sb_surface",)) in where(found_in(lambda n: is_call(n, "_sb_mu")))


def test_one_caps_default():
    # the auxiliary caps of a SampleConfig default to the source alphabet
    # sizes in one place, optimize._caps: nothing else in optimize reads them
    reads = found_in(lambda n: isinstance(n, ast.Attribute) and n.attr in ("cap_u", "cap_v") and isinstance(n.ctx, ast.Load))
    reads = [r for r in reads if r[0].startswith("optimize.py:")]
    assert reads and set(where(reads)) == {("optimize.py", ("_caps",))}, f"cap reads in optimize: {reads}"


def test_one_binning_setup():
    # the binning test and the binning search share one setup,
    # regions._binning_setup, which alone builds the rate sums
    calls = found_in(lambda n: is_call(n, "_rate_sums"))
    assert where(calls) == [("regions.py", ("_binning_setup",))], f"rate-sum builds: {calls}"


# CPython's parser doubles its token array past this many tokens, and
# compile()'s peak memory for the module then rises by about 0.45 MiB, in
# every process that imports it without a bytecode cache
PARSER_TOKEN_STEP = 8192


def test_modules_below_the_parser_token_step():
    # tokens as tokenize counts them, less comments and blank lines
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    skip = (tokenize.COMMENT, tokenize.NL)
    counts = {
        path.name: sum(t.type not in skip for t in tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
        for path in files
    }
    over = {name: n for name, n in counts.items() if n >= PARSER_TOKEN_STEP}
    assert files and not over, (
        f"modules at or past {PARSER_TOKEN_STEP} tokens: {over}; move code out of them to stay below"
    )


def test_one_information_body():
    # every information term of the batched scorers is one formula in one
    # body, probability._batch_informations, the only caller of
    # batch_entropies; no module keeps a table of entropy groups; and the
    # label path's MI and CMI share one body, probability._information
    calls = found_in(lambda n: is_call(n, "batch_entropies"))
    assert where(calls) == [("probability.py", ("_batch_informations",))], f"batch_entropies calls: {calls}"
    tables = found_in(lambda n: isinstance(n, ast.Name) and n.id.endswith("_GROUPS") and isinstance(n.ctx, ast.Store))
    assert not tables, f"group tables: {tables}"
    bodies = where(found_in(lambda n: is_call(n, "_information")))
    for name in ("mutual_information", "conditional_mutual_information"):
        assert ("probability.py", (name,)) in bodies, f"{name} does not call _information: {bodies}"
