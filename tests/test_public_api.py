import re
from pathlib import Path

import photonprep

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_is_in_the_readme_module_table():
    """The public API is no larger than the README shows: each name in
    __all__ appears, as code, in the table of core modules."""
    table = "\n".join(re.findall(r"^\| `[a-z]+` \|.*$", README.read_text(), flags=re.M))
    missing = [name for name in photonprep.__all__ if f"`{name}`" not in table and f"`{name}(" not in table]
    assert not missing
