"""Lightweight pydocstyle-style audit of the public entry points.

Scope: every module of ``repro.serving``, ``repro.scenarios`` and
``repro.planner``, plus ``repro.core.batch`` and ``repro.codec``.  The
rules are deliberately small and mechanical so the check stays fast and
non-flaky:

* every public class, function, method and property defined in those
  modules carries a docstring whose first line is a non-empty summary;
* every parameter of a public *module-level* function is mentioned by name
  somewhere in its docstring (the "argument docs" floor — ``self``/``cls``
  and ``*args``/``**kwargs`` excluded).

"Public" means not underscore-prefixed and defined in (not imported into)
the audited module.  Violations list the full dotted path, so a failure
reads as a worklist.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from typing import Iterator, List, Tuple

import repro.codec
import repro.core.batch
import repro.planner
import repro.scenarios
import repro.serving

AUDITED_PACKAGES = (repro.serving, repro.scenarios, repro.planner)
AUDITED_MODULES = (repro.core.batch, repro.codec)


def audited_modules() -> List[object]:
    """Every module the audit covers, packages walked recursively."""
    modules = list(AUDITED_MODULES)
    for package in AUDITED_PACKAGES:
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_") and info.name != "__main__":
                continue
            modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


def _has_summary(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc) and bool(doc.splitlines()[0].strip())


def _public_members(module) -> Iterator[Tuple[str, object]]:
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj


def _class_members(cls) -> Iterator[Tuple[str, object]]:
    for name, raw in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(raw, property):
            yield name, raw.fget
        elif isinstance(raw, (staticmethod, classmethod)):
            yield name, raw.__func__
        elif inspect.isfunction(raw):
            yield name, raw


def test_every_public_entry_point_has_a_summary_line():
    missing: List[str] = []
    for module in audited_modules():
        for name, obj in _public_members(module):
            path = f"{module.__name__}.{name}"
            if not _has_summary(obj):
                missing.append(path)
            if inspect.isclass(obj):
                for member_name, member in _class_members(obj):
                    if not _has_summary(member):
                        missing.append(f"{path}.{member_name}")
    assert not missing, (
        "public entry points without a docstring summary line:\n  "
        + "\n  ".join(sorted(missing))
    )


def test_module_level_functions_document_their_parameters():
    undocumented: List[str] = []
    for module in audited_modules():
        for name, obj in _public_members(module):
            if not inspect.isfunction(obj):
                continue
            doc = inspect.getdoc(obj) or ""
            for parameter in inspect.signature(obj).parameters.values():
                if parameter.kind in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD,
                ):
                    continue
                if not re.search(rf"\b{re.escape(parameter.name)}\b", doc):
                    undocumented.append(
                        f"{module.__name__}.{name}({parameter.name})"
                    )
    assert not undocumented, (
        "module-level public functions with undocumented parameters:\n  "
        + "\n  ".join(sorted(undocumented))
    )
