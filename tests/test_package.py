"""Package surface tests: the export lists and README's Quick start."""

from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import namesift

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    modules = [namesift] + [
        importlib.import_module(f"namesift.{info.name}") for info in pkgutil.iter_modules(namesift.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
    namespace: dict = {}
    exec("from namesift import *", namespace)
    assert set(namesift.__all__) <= set(namespace)


def test_readme_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "{'d1': 'e1', 'd2': 'e2'}"
    assert lines[1].startswith("TaskMetrics(")
