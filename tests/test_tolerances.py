"""One tolerance policy: every threshold is named once, in photonprep.tolerances."""

import ast
import inspect
from pathlib import Path

import numpy as np

import photonprep
from photonprep import tolerances

PACKAGE = Path(photonprep.__file__).parent
# the policy itself
EXEMPT = {"tolerances.py"}


def test_no_threshold_literal_outside_the_policy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value <= 1e-5:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found


def test_no_public_function_takes_a_tolerance():
    for name in photonprep.__all__:
        obj = getattr(photonprep, name)
        if inspect.isfunction(obj):
            assert not [p for p in inspect.signature(obj).parameters if "tol" in p], name


def test_takagi_cut_is_rounding_level():
    assert tolerances.TAKAGI_CUT == 8 * np.finfo(float).eps
