"""The README's first Python example runs as printed, and every name the
README lists exists in the package."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import shape_transport
from shape_transport import kendall

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def _listed_names() -> set:
    """Names imported in the README's Python blocks, the Kendall API list,
    and `module.name` references to the package's modules."""
    names = set()
    for block in BLOCKS:
        for group in re.findall(r"from shape_transport import (\([^)]*\)|[^\n]*)", block):
            names.update(n.strip() for n in group.strip("()").split(",") if n.strip())
    kendall_list = re.search(r"live in `shape_transport\.kendall`\s*\(([^)]*)\)", README)
    names.update(re.findall(r"`(\w+)`", kendall_list.group(1)))
    for mod, name in re.findall(r"`([a-z_]+)\.(\w+)`", README):
        if importlib.util.find_spec(f"shape_transport.{mod}") is not None:
            names.add((mod, name))
    return names


def test_first_example_prints_zero_drift():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(BLOCKS[0], "README.md", "exec"), {})
    assert out.getvalue().split() == ["0.0"]


def test_listed_names_resolve():
    names = _listed_names()
    assert len(names) >= 20
    missing = []
    for name in names:
        if isinstance(name, tuple):
            mod, attr = name
            found = hasattr(importlib.import_module(f"shape_transport.{mod}"), attr)
        else:
            found = hasattr(shape_transport, name) or hasattr(kendall, name)
        if not found:
            missing.append(name)
    assert missing == []
