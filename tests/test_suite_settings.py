"""The suite's own settings: warnings fail a test without aborting the run,
and every source file parses at the declared Python floor."""

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FILE = textwrap.dedent('''
    import warnings

    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_failing_property(x):
        assert x < 10


    def test_other_deprecation_warning():
        warnings.warn("some other deprecation", DeprecationWarning)


    def test_passing():
        pass
''')


def test_failing_property_fails_without_aborting_the_suite(tmp_path):
    # When a property fails, hypothesis' plugin imports libcst to write a
    # patch, which warns on import; that warning alone is ignored, so the
    # run goes on, and every other warning still fails its test.  The run
    # happens in tmp_path, where hypothesis writes its database and patches.
    (tmp_path / "test_subject.py").write_text(_FILE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(_PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_subject.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
    assert "FAILED test_subject.py::test_other_deprecation_warning" in result.stdout


def test_every_source_file_parses_at_the_python_floor():
    # The floor is read with a regex: tomllib needs 3.11, past the floor.
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', _PYPROJECT.read_text(), re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    root = _PYPROJECT.parent
    paths = [path for folder in ("src/hsf", "tests", "demos", "bench")
             for path in sorted((root / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
