"""The README's library example runs and ``nsw.__all__`` names only what
exists, each name documented.

A name removed from the package but still used in the first example under
the README's "Library use" heading, or still listed in ``__all__``, fails
here, as does a name of ``__all__`` that the Library use section never
mentions.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import nsw

ROOT = Path(__file__).resolve().parent.parent


def library_section() -> str:
    """The README's text under the Library use heading."""
    return (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The first ```python block under the README's Library use heading."""
    return re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)


def test_readme_library_example_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "-c", library_example()]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    final_z, decision_fraction = map(float, proc.stdout.split())
    assert final_z > 0 and 0 < decision_fraction <= 1


def test_all_names_resolve():
    assert [name for name in nsw.__all__ if not hasattr(nsw, name)] == []
    assert len(set(nsw.__all__)) == len(nsw.__all__)


def test_all_names_documented():
    section = library_section()
    assert [name for name in nsw.__all__ if not re.search(rf"\b{name}\b", section)] == []
