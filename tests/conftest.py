"""Shared fixtures."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from mkc import solve


@pytest.fixture
def lapack_calls(monkeypatch):
    """Every LAPACK call mkc makes during the test, as (name, dtype kind, stack shape, n).

    name is the numpy.linalg function, the dtype kind "f" or "c", the stack
    shape that of a[..., 0, 0] and n the larger of the matrices' two sides.
    Calls reach numpy only through mkc.solve._lapack, which this replaces.
    """
    calls = []
    lapack = solve._lapack

    def counted(name, a, **kw):
        calls.append((name, a.dtype.kind, a.shape[:-2], max(a.shape[-2:])))
        return lapack(name, a, **kw)

    monkeypatch.setattr(solve, "_lapack", counted)
    return calls


@pytest.fixture(scope="session")
def cli_module_files():
    """The source files of the mkc modules that `import mkc.cli` loads, in a fresh process."""
    src = pathlib.Path(solve.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import mkc.cli, sys; print(sorted("
         "m.__file__ for n, m in sys.modules.items() if n.split('.')[0] == 'mkc'))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [pathlib.Path(f) for f in ast.literal_eval(proc.stdout)]
