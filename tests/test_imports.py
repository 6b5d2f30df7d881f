"""scipy is loaded only by the commands that compute Gaussian CDFs.

Each case runs in a fresh interpreter, so modules imported by other tests
cannot leak in.  The `checks` case guards against a vacuous pass: if scipy
were never importable from the package at all, the first case would pass
for the wrong reason.  The last case checks that every name in ``hsf.__all__``
still exists, so a deleted function cannot leave a stale export behind.
"""

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
