"""mkc.solve: its 1x1 closed forms, its SVD, and that no other module calls LAPACK.

The guards read source text: no module of mkc but solve names a LAPACK
routine of numpy.linalg or asks norm for ord=2 (an SVD), and no test patches
numpy.linalg, since the lapack_calls fixture sees every call mkc makes.
tests/dense_reference.py calls numpy directly: it is the reference.
"""

import ast
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mkc import solve

SRC = pathlib.Path(solve.__file__).parent
TESTS = pathlib.Path(__file__).parent
LAPACK = {"svd", "eigvalsh", "eigh", "eigvals", "eig", "slogdet", "det", "solve", "qr", "inv", "pinv"}
EPS = np.finfo(float).eps


def _stacks(shape, seed=3):
    """A real and a complex random stack of the given shape, entries over many decades."""
    rng = np.random.default_rng(seed)
    real = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape)
    return real, real + 1j * rng.standard_normal(shape) * np.abs(real)


@pytest.mark.parametrize("kind", [0, 1], ids=["real", "complex"])
def test_one_by_one_closed_forms_match_lapack_to_a_few_ulps(kind, lapack_calls):
    # svd of a 1x1 rounds |a| differently in a few percent of draws, so the
    # check is to ulps, not to the bit
    a = _stacks((4000, 1, 1))[kind]
    sv = solve.singular_values(a)
    levels = solve.symmetric_levels(a)
    assert lapack_calls == []
    want_sv = np.linalg.svd(a, compute_uv=False)
    want_levels = np.abs(np.linalg.eigvalsh(a))
    assert sv.shape == levels.shape == (4000, 1)
    assert np.all(np.abs(sv - want_sv) <= 4 * EPS * want_sv)
    assert np.all(np.abs(levels - want_levels) <= 4 * EPS * want_levels)


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4), (20, 4, 4), (6, 30, 30)])
@pytest.mark.parametrize("kind", [0, 1], ids=["real", "complex"])
def test_singular_pairs_of_square_stacks_are_numpys_svd_to_the_bit(shape, kind, lapack_calls):
    a = _stacks(shape, seed=len(shape))[kind]
    got = solve.singular_pairs(a)
    want = np.linalg.svd(a)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert lapack_calls == [("svd", a.dtype.kind, shape[:-2], shape[-1])]


def test_lapack_looks_numpy_up_at_each_call(monkeypatch):
    # a wrapper put on numpy.linalg after mkc is imported still sees the call
    seen = []

    def svd(a, **kw):
        seen.append(kw)
        return np.linalg.svd(a, **kw)

    monkeypatch.setattr(solve, "np", SimpleNamespace(linalg=SimpleNamespace(svd=svd)))
    solve.singular_pairs(np.eye(2))
    assert seen == [{"full_matrices": False}]


def _lapack_uses(path):
    """(line, text) of each LAPACK routine of numpy.linalg and each ord=2 norm in path."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAPACK:
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name in LAPACK]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "norm":
            ords = [k.value for k in node.keywords if k.arg == "ord"] + node.args[1:2]
            if any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_only_solve_calls_lapack():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "solve.py" in modules and len(modules) > 5
    calls = {p.name: _lapack_uses(p) for p in modules if p.name != "solve.py"}
    assert {name: uses for name, uses in calls.items() if uses} == {}
    # the reference calls numpy directly, and the scan sees it
    assert any("eigh" in text for _, text in _lapack_uses(TESTS / "dense_reference.py"))


def test_lapack_scan_catches_each_spelling(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy as np\n"
        "from numpy.linalg import qr\n"
        "a = np.linalg.svd(x)\n"
        "b = numpy.linalg.slogdet(x)\n"
        "c = np.linalg.norm(x, ord=2, axis=(-2, -1))\n"
        "d = np.linalg.norm(x, 2)\n"
        "e = np.linalg.norm(x)\n"
    )
    assert sorted(line for line, _ in _lapack_uses(src)) == [2, 3, 4, 5, 6]


# patch, patch.object, patch.multiple or setattr on numpy.linalg or one of its names
_PATCH = re.compile(r"""(patch(\.object|\.multiple)?|setattr)\(\s*(np\.linalg\b|numpy\.linalg\b|["']numpy\.linalg)""")


def test_no_test_patches_numpy_linalg():
    patched = {
        p.name: [line for line in p.read_text().splitlines() if _PATCH.search(line)]
        for p in sorted(TESTS.glob("*.py"))
    }
    assert {name: lines for name, lines in patched.items() if lines} == {}
    # the probes are split so that this file does not match itself
    assert _PATCH.search("monkeypatch.setattr(" + 'np.linalg, "svd", spy)')
    assert _PATCH.search("mock.patch.object(" + 'np.linalg, "eigvalsh", wraps=f)')
    assert _PATCH.search("mock.patch(" + '"numpy.linalg.svd")')
