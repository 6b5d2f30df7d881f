"""Which heavy modules load, and when.

Each case runs in a fresh interpreter, so modules imported by other tests
cannot leak in.  No command needs scipy: the normal tail is a port of Cephes'
erfc and the bivariate normal CDF a Gauss-Legendre rule, both on numpy and
the math module.  The two scipy cases prove it rather than observing it: a
``sys.meta_path`` finder refuses every ``scipy`` import before ``hsf`` loads,
the commands other than ``checks`` run under it in one case, and ``checks``
and the Gaussian rectangle routes in the other, and each interpreter then
fails a deliberate ``import scipy``, so the blocker was in force and the pass
is not vacuous.  The Gauss-Legendre nodes are literals,
so ``import hsf.cli`` loads no ``numpy.polynomial``.  ``import hsf`` loads no
numpy, and the command sets ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads
unless the caller set it.
The package resolves its exports lazily, so the last cases check that every
name in ``hsf.__all__`` still exists, that an unknown name is an
``AttributeError``, and that each export has a caller, so no function lives
only to be exported.  No module reads a private name of another: a helper
that two modules share gets a public name, as those in ``hsf._bits`` do.
Only the modules named in ``_COEFFICIENT_READERS`` read a spectrum's
``.coefficients``; every other reader of squared mass goes through the
degree weights, which own the widening of a float32 spectrum.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Refuses every scipy import, then loads the command.  A script that starts
# with this ends with _NO_SCIPY_REPORT.
_NO_SCIPY_PREAMBLE = """
import json, os, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy import refused: {name}")


sys.meta_path.insert(0, NoScipy())
from hsf.cli import main

polynomial = [m for m in sys.modules if m.startswith("numpy.polynomial")]
out = sys.argv[1]
"""

# A deliberate `import scipy` must fail, so the blocker was in force.
_NO_SCIPY_REPORT = """
try:
    import scipy
except ImportError:
    refused = True
else:
    refused = False
print(json.dumps({"codes": codes, "values": values, "refused": refused,
                  "polynomial_at_import": polynomial,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

_OTHER_COMMANDS_SCRIPT = _NO_SCIPY_PREAMBLE + """
from hsf.ltf import save_ltf_file

ltf = os.path.join(out, "f.json")
save_ltf_file(ltf, [3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.25], 0.5)
codes = [
    main(["--version"]),
    main(["sweep", "--families", "gaussian,equal", "--n", "6", "--count", "2",
          "--out", os.path.join(out, "sweep.csv")]),
    main(["junta", "--ltf", ltf, "--epsilon", "0.25", "--delta", "0.8",
          "--out", os.path.join(out, "junta.csv")]),
    main(["analyze", "--ltf", ltf, "--out", os.path.join(out, "analyze.csv")]),
    main(["gaussian", "--samples", "2000", "--out", os.path.join(out, "gaussian.csv")]),
]
values = []
""" + _NO_SCIPY_REPORT

# `checks` and the Gaussian library routes; |rho| >= 0.925 takes Genz's
# high-correlation branch.
_CHECKS_SCRIPT = _NO_SCIPY_PREAMBLE + """
from hsf import bivariate_rectangle, gaussian_disagreement

codes = [main(["checks", "--samples", "2000", "--out", os.path.join(out, "checks.csv")])]
values = [gaussian_disagreement(0.3, 0.95), bivariate_rectangle((-1.0, 0.5), (0.0, 2.0), -0.97)]
""" + _NO_SCIPY_REPORT


# Runs STATEMENT and records OPENBLAS_NUM_THREADS as numpy starts to load.
_BLAS_SPY_SCRIPT = """
import json, os, runpy, sys

class Spy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy())
sys.argv = ["hsf", "--version"]
try:
    STATEMENT
except SystemExit:
    pass
print(json.dumps({"numpy": "numpy" in sys.modules, "at_numpy": Spy.seen,
                  "after": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


# In a fresh interpreter no submodule is loaded before the `from` import.
_SUBMODULE_SCRIPT = """
import json, sys
from hsf import _bits, fncore
import hsf

print(json.dumps({"bits": _bits is sys.modules["hsf._bits"], "wht": fncore.wht is hsf.wht}))
"""


def _run(script: str, tmp_path, blas_threads: str | None = None) -> dict:
    # The variable is dropped: this process may have imported hsf.cli already.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_no_scipy(result: dict) -> None:
    assert result["scipy"] == []
    assert result["refused"]
    assert result["polynomial_at_import"] == []


def test_cli_commands_other_than_checks_never_load_scipy(tmp_path):
    result = _run(_OTHER_COMMANDS_SCRIPT, tmp_path)
    assert result["codes"] == [0, 0, 0, 0, 0]
    _assert_no_scipy(result)
    for name in ("sweep", "junta", "analyze", "gaussian"):
        assert (tmp_path / f"{name}.csv").stat().st_size > 0


def test_checks_never_loads_scipy(tmp_path):
    result = _run(_CHECKS_SCRIPT, tmp_path)
    assert result["codes"] == [0]
    assert all(0.0 < value < 1.0 for value in result["values"])
    _assert_no_scipy(result)
    assert (tmp_path / "checks.csv").stat().st_size > 0


@pytest.mark.parametrize("statement, preset, expected", [
    ("import hsf.cli", None, "1"),
    ("import hsf.cli", "2", "2"),
    # The path of `python -m hsf.cli --version`.
    ("runpy.run_module('hsf.cli', run_name='__main__')", None, "1"),
])
def test_cli_sets_one_blas_thread_before_numpy_loads(tmp_path, statement, preset, expected):
    result = _run(_BLAS_SPY_SCRIPT.replace("STATEMENT", statement), tmp_path, preset)
    assert result["numpy"]
    assert result["at_numpy"] == [expected]


def test_import_hsf_loads_no_numpy_and_leaves_blas_threads_alone(tmp_path):
    result = _run(_BLAS_SPY_SCRIPT.replace("STATEMENT", "import hsf"), tmp_path)
    assert result == {"numpy": False, "at_numpy": [], "after": None}


def test_lazy_package_lists_its_exports_and_rejects_unknown_names():
    import hsf

    assert set(hsf.__all__) <= set(dir(hsf))
    with pytest.raises(AttributeError, match="no_such_name"):
        hsf.no_such_name
    assert not hasattr(hsf, "no_such_name")


def test_submodule_imports_resolve_through_the_lazy_package(tmp_path):
    result = _run(_SUBMODULE_SCRIPT, tmp_path)
    assert result == {"bits": True, "wht": True}


def test_every_exported_name_resolves():
    import hsf

    missing = [name for name in hsf.__all__ if not hasattr(hsf, name)]
    assert missing == []
    namespace: dict = {}
    exec("from hsf import *", namespace)
    assert set(hsf.__all__) <= set(namespace)


# Exports with no caller in the package, the command or a demo, and why each stays.
_UNCALLED_EXPORTS = {
    "head_projection": "acceptance criterion 10 checks it, and bench/kernels.py times it",
    "save_ltf_file": "writes the weight files the command reads",
}


def _hsf_imports(tree: ast.Module, stems: set[str]) -> tuple[set[str], list]:
    # Local names bound to an hsf module, and the (alias, line) of every other
    # name imported from hsf.
    modules, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] == "hsf")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hsf"):
            from_package = node.module in (None, "hsf")
            for alias in node.names:
                if from_package and alias.name in stems:
                    modules.add(alias.asname or alias.name)
                else:
                    names.append((alias, node.lineno))
    return modules, names


def _references(path: Path, stems: set[str]) -> dict[str | None, set[str]]:
    # Exports each top-level function or class of a file uses, keyed by its
    # name, and those the rest of the file uses, keyed by None.  An attribute
    # counts when read off an hsf module; a bare name counts in its home module
    # and in a file that imports it from hsf, so a local variable or numpy's
    # function of the same name is no caller.
    import hsf

    tree = ast.parse(path.read_text())
    modules, imported = _hsf_imports(tree, stems)
    bare = {name: name for name, home in hsf._HOME.items() if home == path.stem}
    bare.update((alias.asname or alias.name, alias.name) for alias, _ in imported)
    found: dict[str | None, set[str]] = {}
    for node in tree.body:
        key = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        refs = found.setdefault(key, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in bare:
                refs.add(bare[sub.id])
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules):
                refs.add(sub.attr)
    return found


def test_every_exported_name_has_a_caller():
    import hsf

    package = ROOT / "src" / "hsf"
    stems = {p.stem for p in package.glob("*.py")}
    sources = {p.stem: _references(p, stems)
               for p in package.glob("*.py") if p.name != "__init__.py"}
    demos = set().union(*(refs for p in (ROOT / "demos").glob("*.py")
                          for refs in _references(p, stems).values()))
    uncalled, stale = [], []
    for name in hsf.__all__:
        home = hsf._HOME[name]
        used = demos.union(*(refs for stem, by_def in sources.items()
                             for key, refs in by_def.items() if (stem, key) != (home, name)))
        if name not in used and name not in _UNCALLED_EXPORTS:
            uncalled.append(name)
        elif name in used and name in _UNCALLED_EXPORTS:
            stale.append(name)  # a caller appeared: the entry is no longer needed
    assert uncalled == [] and stale == []
    assert not set(_UNCALLED_EXPORTS) - set(hsf.__all__)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")  # __version__ is public


def test_no_module_reads_a_private_name_of_another():
    package = ROOT / "src" / "hsf"
    stems = {p.stem for p in package.glob("*.py")}
    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules, imported = _hsf_imports(tree, stems)
        reads += [f"{path.name}:{line} imports {alias.name}"
                  for alias, line in imported if _private(alias.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in stems:
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    reads.append(f"{path.name}:{node.lineno} reads {node.attr}")
    assert reads == []


# The modules that read a spectrum's coefficients, and why each does.
_COEFFICIENT_READERS = {
    "fncore": "owns the spectrum: its checks, degree weights and synthesize",
    "junta": "the empty head's bias is the signed empty-set coefficient",
    "restriction": "the energy identity's parent side, a route kept independent",
}


def test_only_the_listed_modules_read_coefficients():
    package = ROOT / "src" / "hsf"
    readers = {path.stem for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "coefficients"}
    assert readers == set(_COEFFICIENT_READERS)
