"""Shared fixtures."""

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
