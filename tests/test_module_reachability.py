"""Every library module is reached by code that is not a test.

A module that only tests import is dead weight: it has to be kept
correct and documented, and ``import repro`` loads it, yet no pipeline,
benchmark, script or example needs it.  This guard walks the static
imports of ``src/`` (a package ``__init__`` importing its own modules
does not count), ``scripts/``, ``benchmarks/``, ``examples/`` and
``paperbench/``, and resolves ``from pkg import name`` through the
package's re-exports.  The ``repro.cli`` entry point is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = ("scripts", "benchmarks", "examples", "paperbench")
EXEMPT = {"repro.cli"}


def _dotted(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> list[tuple[str, str | None, str]]:
    """``(module, name, bound name)`` per import; ``name`` is None for
    ``import module``.  Relative imports resolve against ``src/``."""
    here = _dotted(path).split(".") if path.is_relative_to(SRC) else []
    if path.name != "__init__.py":
        here = here[:-1]
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [(a.name, None, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = here[: len(here) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            out += [(base, a.name, a.asname or a.name) for a in node.names]
    return out


def unreached_modules() -> list[str]:
    files = {_dotted(p): p for p in (SRC / "repro").rglob("*.py")}
    packages = {m for m, p in files.items() if p.name == "__init__.py"}
    reexports = {
        pkg: {bound: (mod, name) for mod, name, bound in _imports(files[pkg]) if name}
        for pkg in packages
    }

    def resolve(mod: str, name: str | None) -> str | None:
        """The module file that ``from mod import name`` loads."""
        if name is not None:
            if f"{mod}.{name}" in files:
                return f"{mod}.{name}"
            if name in reexports.get(mod, {}):
                return resolve(*reexports[mod][name])
        return mod if mod in files else None

    callers = list(files.values())
    callers += [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    reached = set()
    for path in callers:
        own = _dotted(path) if path.name == "__init__.py" and path.is_relative_to(SRC) else None
        for mod, name, _ in _imports(path):
            target = resolve(mod, name)
            if target and target.rpartition(".")[0] != own:
                reached.add(target)
    return sorted(set(files) - packages - EXEMPT - reached)


def test_every_module_has_a_non_test_importer():
    assert unreached_modules() == []
