"""mkc.tolerance: every threshold of the modules the CLI loads is named there once.

The guard reads source text, as tests/test_solve.py does for LAPACK calls:
no module that `import mkc.cli` loads, other than mkc/tolerance.py, holds a
float literal that looks like a tolerance, |x| in (0, 1e-3) or [0.99, 1),
or binds a policy name as a default argument instead of reading it in the
function body.  Docstrings are strings, so the numbers they quote are not
literals.
"""

import ast

import numpy as np

from mkc import tolerance

POLICY = {name for name in vars(tolerance) if name.isupper()}


def _tolerance_literals(path):
    """(line, text) of each tolerance-like float literal and policy-name default in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            x = abs(node.value)
            if 0.0 < x < 1e-3 or 0.99 <= x < 1.0:
                found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.arguments):
            for default in node.defaults + [d for d in node.kw_defaults if d is not None]:
                if isinstance(default, ast.Name) and default.id in POLICY:
                    found.append((default.lineno, default.id))
    return found


def test_cli_modules_name_every_tolerance_in_the_policy(cli_module_files):
    names = {f.name for f in cli_module_files}
    assert {"tolerance.py", "boundary.py", "lattice.py", "config.py"} <= names
    found = {f.name: _tolerance_literals(f) for f in cli_module_files if f.name != "tolerance.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_tolerance_scan_catches_each_spelling(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""A docstring that quotes 1e-12."""\n'
        "a = 1e-12\n"
        "b = -1e-7 * x\n"
        "c = 0.999\n"
        "def f(x, tol=1e-9, *, cut=SYMMETRY_TOL):\n"
        "    return x > 1e-3 and x < 0.5 and x != 0.0 and x < 1.0\n"
    )
    assert sorted(line for line, _ in _tolerance_literals(src)) == [2, 3, 4, 5, 5]


def test_policy_holds_plain_positive_floats():
    values = {name: getattr(tolerance, name) for name in POLICY}
    assert len(values) > 15
    assert all(type(v) is float and 0.0 < v < 1.0 for v in values.values()), values
    assert tolerance.ENTRY_CUT == np.finfo(float).eps ** 2
