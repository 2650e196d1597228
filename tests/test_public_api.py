import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import photonprep
from photonprep import QuditTarget, from_qudit_target
from photonprep import io as photonprep_io

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_is_in_the_readme_module_table():
    """The public API is no larger than the README shows: each name in
    __all__ appears, as code, in the table of core modules."""
    table = "\n".join(re.findall(r"^\| `[a-z]+` \|.*$", README.read_text(), flags=re.M))
    missing = [name for name in photonprep.__all__ if f"`{name}`" not in table and f"`{name}(" not in table]
    assert not missing


def test_readme_library_block_runs_as_documented():
    """The README's python block runs: the heralded Bell pair verifies with
    the signal (2,), and build_cnz's pair gives the CZ at p_s = 1/9."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    bell, cz = printed.getvalue().splitlines()
    fidelity, probability, signal = bell.split(" ", 2)
    assert float(fidelity) > 1 - 1e-9 and signal == "(2,)"
    assert abs(float(probability) - 0.0200130896446016) <= 1e-12 * 0.02
    assert abs(float(cz) - 1 / 9) <= 1e-12


def test_runtime_imports_numpy_only(tmp_path):
    """gate-cnz and synth-herald load nothing beyond numpy, the standard
    library and photonprep itself; modules the interpreter loaded at
    startup (.pth hooks among them) are not counted."""
    bell = tmp_path / "bell.json"
    photonprep_io.dump_json(
        photonprep_io.matrix_to_doc(from_qudit_target(QuditTarget(np.eye(2) / np.sqrt(2))).S), str(bell)
    )
    verbs = [
        ["gate-cnz", "--n", "2", "--phi", "1.0", "--output", str(tmp_path / "cz.json")],
        ["synth-herald", "--target", str(bell), "--photons", "4", "--output", str(tmp_path / "herald.json")],
    ]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from photonprep import cli\n"
        f"assert [cli.main(argv) for argv in {verbs!r}] == [0, 0]\n"
        "roots = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(roots - sys.stdlib_module_names - {'numpy', 'photonprep'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(photonprep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
