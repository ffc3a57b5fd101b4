"""The docs cite code that exists.

Every reference under ``docs/`` that names the program must resolve
against the package and the test suite as they stand: a backticked
```Class.attr``` whose ``Class`` is a ``repro`` class, a ``repro.…``
dotted path and a ``tests/…::…`` test id. A change that deletes or
renames what a doc cites fails here until the doc is mended.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from functools import lru_cache
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md"))

_CLASS_ATTR = re.compile(r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_TEST_ID = re.compile(r"\btests/[\w/]+\.py(?:::[A-Za-z_]\w*)+")
_SELF_ASSIGN = re.compile(r"self\.([A-Za-z_]\w*)\s*(?::[^=\n]*)?=(?!=)")


def _citations(pattern: re.Pattern) -> "list[tuple[str, str]]":
    """(``file:line``, match) for every match of ``pattern`` in the docs."""
    found = []
    for doc in DOCS:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for m in pattern.finditer(line):
                found.append((f"{doc.relative_to(ROOT)}:{lineno}", m))
    return found


@lru_cache(maxsize=None)
def _repro_classes() -> "dict[str, list[type]]":
    """Every class defined in a ``repro`` module, by name."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # the CLI runs on import
            importlib.import_module(info.name)
    classes: "dict[str, list[type]]" = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == name:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


def _has_attr(cls: type, attr: str) -> bool:
    """Class attributes, annotated fields and the attributes a ``repro``
    class (or a ``repro`` base) assigns on ``self``."""
    if hasattr(cls, attr):
        return True
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        if attr in getattr(klass, "__annotations__", {}):
            return True
        if attr in _SELF_ASSIGN.findall(inspect.getsource(klass)):
            return True
    return False


def _resolves(path: str) -> bool:
    """Import the longest module prefix of ``path``, then walk the rest
    as attributes."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
            break
        except ImportError:
            pass
    rest = parts[i:]
    for k, attr in enumerate(rest):
        if not hasattr(obj, attr):
            # An attribute set on instances ends the path.
            last = k == len(rest) - 1
            return last and inspect.isclass(obj) and _has_attr(obj, attr)
        obj = getattr(obj, attr)
    return True


def _test_exists(test_id: str) -> bool:
    path, *names = test_id.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    body = ast.parse(file.read_text()).body
    for name in names:
        node = next(
            (n for n in body
             if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body if isinstance(node, ast.ClassDef) else []
    return True


def test_class_attributes_resolve():
    classes = _repro_classes()
    cited = [
        (where, m.group(1), m.group(2))
        for where, m in _citations(_CLASS_ATTR)
        if m.group(1) in classes
    ]
    stale = [
        f"{where}: {cls}.{attr}" for where, cls, attr in cited
        if not any(_has_attr(c, attr) for c in classes[cls])
    ]
    assert cited
    assert stale == []


def test_dotted_paths_resolve():
    cited = [(where, m.group(0)) for where, m in _citations(_DOTTED)]
    stale = [f"{where}: {path}" for where, path in cited if not _resolves(path)]
    assert cited
    assert stale == []


def test_test_ids_exist():
    cited = [(where, m.group(0)) for where, m in _citations(_TEST_ID)]
    stale = [f"{where}: {tid}" for where, tid in cited if not _test_exists(tid)]
    assert cited
    assert stale == []
