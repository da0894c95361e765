import ast
from pathlib import Path

import pytest

import ehlab


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10: no module may use
    # syntax that only a later grammar accepts
    paths = sorted(Path(ehlab.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


POOLS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Pool"}


def called_names(node) -> set[str]:
    return {getattr(c.func, "id", getattr(c.func, "attr", None))
            for c in ast.walk(node) if isinstance(c, ast.Call)}


def imported_modules(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def check_scan_batch(sources: dict[str, str]):
    """The scan runs as one sweep: only `classical` starts a pool, and only
    the sweep and the one-orbit exponent call the Lyapunov batch (a nested
    function counts as part of the function that holds it)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert "concurrent.futures" not in imported_modules(trees["harness.py"])
    assert {name for name, tree in trees.items()
            if called_names(tree) & POOLS} == {"classical.py"}
    callers = {f.name for f in trees["classical.py"].body
               if isinstance(f, ast.FunctionDef)
               and "_lyapunov_batch" in called_names(f)}
    assert callers == {"estimate_chaotic_measures", "lyapunov_exponent"}


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text()
            for path in sorted(Path(ehlab.__file__).parent.glob("*.py"))}


def test_one_scan_batch():
    check_scan_batch(package_sources())


@pytest.mark.parametrize("module,addition", [
    ("classical.py", "def _per_lambda(params, theta, p, n_steps):\n"
                     "    return _lyapunov_batch(theta, p, params.lam,"
                     " params.tau, n_steps)\n"),
    ("harness.py", "from concurrent.futures import ThreadPoolExecutor\n"),
    ("quantum.py", "def _spread(f, xs):\n"
                   "    with ThreadPoolExecutor() as pool:\n"
                   "        return list(pool.map(f, xs))\n"),
])
def test_scan_batch_check_fails_on_a_mutant(module, addition):
    sources = package_sources()
    sources[module] += "\n\n" + addition
    with pytest.raises(AssertionError):
        check_scan_batch(sources)


COUNT_RULE = "must be an integer >="


def check_count_rule(sources: dict[str, str]):
    """The count rule is written out once: no string constant outside
    errors.py, f-string parts included, states it, so every other module
    refuses a count through errors.require_count."""
    writers = {name for name, text in sources.items()
               for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and COUNT_RULE in node.value}
    assert writers == {"errors.py"}


def test_one_count_rule():
    check_count_rule(package_sources())


@pytest.mark.parametrize("module,addition", [
    ("quantum.py", "def _check_horizon(horizon):\n"
                   "    if not is_count(horizon) or horizon < 2:\n"
                   "        raise ConfigurationError(\n"
                   "            f\"horizon must be an integer >= 2, got {horizon!r}\")\n"),
    ("harness.py", "def _threads(n):\n"
                   "    if n < 1:\n"
                   "        raise ConfigurationError("
                   "\"EHLAB_THREADS must be an integer >= 1\")\n"),
])
def test_count_rule_check_fails_on_a_mutant(module, addition):
    sources = package_sources()
    sources[module] += "\n\n" + addition
    with pytest.raises(AssertionError):
        check_count_rule(sources)


def writes_int64_bound(node) -> bool:
    """`2 ** 63`, or the bound written out as a literal."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return (getattr(node.left, "value", None) == 2
                and getattr(node.right, "value", None) == 63)
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value in (2 ** 63, 2 ** 63 - 1))


def check_one_number_test(sources: dict[str, str]):
    """The 64-bit bound of a count is written once, in errors.py, so every
    other module tests a number through errors.is_count and is_real."""
    writers = {name for name, text in sources.items()
               for node in ast.walk(ast.parse(text))
               if writes_int64_bound(node)}
    assert writers == {"errors.py"}


def test_one_number_test():
    check_one_number_test(package_sources())


@pytest.mark.parametrize("module,addition", [
    ("harness.py", "def _too_big(val):\n"
                   "    return isinstance(val, int) and abs(val) >= 2 ** 63\n"),
    ("quantum.py", "_INT64_MAX = 9223372036854775807\n"),
])
def test_number_test_check_fails_on_a_mutant(module, addition):
    sources = package_sources()
    sources[module] += "\n\n" + addition
    with pytest.raises(AssertionError):
        check_one_number_test(sources)


def np_calls(node, name: str) -> int:
    """Calls of `np.<name>` in node."""
    return sum(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
               and c.func.attr == name
               and getattr(c.func.value, "id", None) == "np"
               for c in ast.walk(node))


def check_one_libm_call(sources: dict[str, str]):
    """The scan's kernel takes its cos from its sin and has one norm:
    `_lyapunov_batch`, with the functions of classical.py it calls, calls
    np.sin once and np.cos and np.hypot never."""
    functions = {f.name: f for f in ast.parse(sources["classical.py"]).body
                 if isinstance(f, ast.FunctionDef)}
    kernel, todo = set(), ["_lyapunov_batch"]
    while todo:
        name = todo.pop()
        if name not in kernel:
            kernel.add(name)
            todo += called_names(functions[name]) & functions.keys()
    assert sum(np_calls(functions[name], "sin") for name in kernel) == 1
    assert sum(np_calls(functions[name], "cos") for name in kernel) == 0
    assert sum(np_calls(functions[name], "hypot") for name in kernel) == 0


def test_one_libm_call_per_step():
    check_one_libm_call(package_sources())


@pytest.mark.parametrize("old,new", [
    pytest.param("        _cos_from_sin(theta, c, tmp)\n",
                 "        np.cos(theta, out=c)\n", id="cos-in-kernel"),
    pytest.param("    np.copysign(s, tmp, out=s)\n",
                 "    np.copysign(s, tmp, out=s)\n    np.cos(theta, out=s)\n",
                 id="cos-in-helper"),
    pytest.param("        np.multiply(lam, c, out=tmp)\n",
                 "        np.sin(theta, out=tmp)\n"
                 "        np.multiply(lam, tmp, out=tmp)\n", id="second-sin"),
    pytest.param("        np.multiply(v_theta, v_theta, out=c)\n",
                 "        if np.any(tau > 1e18):\n"
                 "            np.hypot(v_theta, v_p, out=c)\n"
                 "        np.multiply(v_theta, v_theta, out=c)\n",
                 id="hypot-branch"),
])
def test_libm_call_check_fails_on_a_mutant(old, new):
    sources = package_sources()
    assert sources["classical.py"].count(old) == 1
    sources["classical.py"] = sources["classical.py"].replace(old, new)
    with pytest.raises(AssertionError):
        check_one_libm_call(sources)


def callers(tree, name: str) -> set[str]:
    """The top-level functions and methods of `tree` that call `name`
    (a nested function counts as part of the function that holds it), and
    "<module>" for a call outside them."""
    found = set()
    for node in tree.body:
        units = node.body if isinstance(node, ast.ClassDef) else [node]
        for unit in units:
            if name in called_names(unit):
                found.add(unit.name if isinstance(unit, ast.FunctionDef)
                          else "<module>")
    return found


def check_one_number_kernel(sources: dict[str, str]):
    """Every CSV number goes through one digit kernel: in harness.py only
    `_float_cells` calls `_source`, and only `_cells` calls `_float_cells`,
    which does not call itself."""
    tree = ast.parse(sources["harness.py"])
    assert callers(tree, "_source") == {"_float_cells"}
    assert callers(tree, "_float_cells") == {"_cells"}


def test_one_number_kernel():
    check_one_number_kernel(package_sources())


@pytest.mark.parametrize("old,new", [
    pytest.param("def _float_cells(", "def _int_cells(v):\n"
                 "    return _source(v.astype(np.uint64))[:, :20]\n\n\n"
                 "def _float_cells(", id="int-cells"),
    pytest.param("    cells = [_cells(col) for col in columns]\n",
                 "    cells = [_float_cells(col) if col.dtype == np.float64\n"
                 "             else _cells(col) for col in columns]\n",
                 id="second-caller"),
    pytest.param("    bits = x.view(np.uint64)\n",
                 "    if not np.isfinite(x).all():\n"
                 "        return _float_cells(np.nan_to_num(x))\n"
                 "    bits = x.view(np.uint64)\n", id="recursion"),
    pytest.param("_FLOAT_LAYOUT = _float_layout()\n",
                 "_FLOAT_LAYOUT = _float_layout()\n"
                 "_ONE = _float_cells(np.ones(1))\n", id="module-level-call"),
])
def test_number_kernel_check_fails_on_a_mutant(old, new):
    sources = package_sources()
    assert sources["harness.py"].count(old) == 1
    sources["harness.py"] = sources["harness.py"].replace(old, new)
    with pytest.raises(AssertionError):
        check_one_number_kernel(sources)
