"""scipy is loaded only by the commands that compute Gaussian CDFs.

Each case runs in a fresh interpreter, so modules imported by other tests
cannot leak in.  The `checks` case guards against a vacuous pass: if scipy
were never importable from the package at all, the first case would pass
for the wrong reason.  The last cases check that every name in ``hsf.__all__``
still exists, so a deleted function cannot leave a stale export behind, and
that each one has a caller, so no function lives only to be exported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NO_SCIPY_SCRIPT = """
import json, os, sys
import hsf.cli
from hsf.cli import main
from hsf.ltf import save_ltf_file

out = sys.argv[1]
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
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

_CHECKS_SCRIPT = """
import json, os, sys
from hsf.cli import main

main(["checks", "--samples", "2000", "--out", os.path.join(sys.argv[1], "checks.csv")])
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _run(script: str, tmp_path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_commands_other_than_checks_never_load_scipy(tmp_path):
    result = _run(_NO_SCIPY_SCRIPT, tmp_path)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["scipy"] == []
    for name in ("sweep", "junta", "analyze", "gaussian"):
        assert (tmp_path / f"{name}.csv").stat().st_size > 0


def test_checks_loads_scipy(tmp_path):
    result = _run(_CHECKS_SCRIPT, tmp_path)
    assert "scipy.special" in result["scipy"]
    assert "scipy.integrate" in result["scipy"]
    assert (tmp_path / "checks.csv").stat().st_size > 0


def test_every_exported_name_resolves():
    import hsf

    missing = [name for name in hsf.__all__ if not hasattr(hsf, name)]
    assert missing == []
    namespace: dict = {}
    exec("from hsf import *", namespace)
    assert set(hsf.__all__) <= set(namespace)


# Exports with no caller in the package, the command or a demo, and why each stays.
_UNCALLED_EXPORTS = {
    "distance": "the table-against-table oracle of the distances extractions report",
    "embed_junta": "lifts a junta to the full table for that oracle",
    "head_projection": "acceptance criterion 10 checks extractions against it",
    "from_values": "the constructor of a table from explicit values",
    "save_ltf_file": "writes the weight files the command reads",
}


def _references(path: Path) -> dict[str | None, set[str]]:
    # Names each top-level function or class of a file uses, keyed by its name,
    # and those the rest of the file uses, keyed by None: loaded names, and
    # attributes read off the modules it imports.
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names
               if isinstance(node, ast.Import) or node.module in (None, "hsf")}
    found: dict[str | None, set[str]] = {}
    for node in tree.body:
        key = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        refs = found.setdefault(key, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                refs.add(sub.id)
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules):
                refs.add(sub.attr)
    return found


def test_every_exported_name_has_a_caller():
    import hsf

    package = ROOT / "src" / "hsf"
    sources = {p.stem: _references(p) for p in package.glob("*.py") if p.name != "__init__.py"}
    demos = set().union(*(refs for p in (ROOT / "demos").glob("*.py")
                          for refs in _references(p).values()))
    uncalled = []
    for name in hsf.__all__:
        home = getattr(getattr(hsf, name), "__module__", "").rpartition(".")[2]
        used = demos.union(*(refs for stem, by_def in sources.items()
                             for key, refs in by_def.items() if (stem, key) != (home, name)))
        if name not in used and name not in _UNCALLED_EXPORTS:
            uncalled.append(name)
    assert uncalled == []
    assert not set(_UNCALLED_EXPORTS) - set(hsf.__all__)
