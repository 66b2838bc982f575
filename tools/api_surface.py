#!/usr/bin/env python3
"""Dump (or check) the public API surface of the repro packages.

The surface is every name exported through ``__all__`` of the modules in
:data:`MODULES` (``repro.analysis``, ``repro.addg``, ``repro.verifier``,
``repro.checker``, ``repro.service``, ``repro.scenarios``,
``repro.diagnostics``, ``repro.telemetry``,
``repro.server``, ``repro.solvers``, ``repro.presburger`` and
``repro.presburger.opcache``), with the parameter lists of functions, class
constructors, public methods and properties.  Annotations and default *values* are deliberately omitted (only
the presence of a default is recorded, as ``=…``) so the rendering is stable
across Python versions.

Usage::

    python tools/api_surface.py            # print the surface to stdout
    python tools/api_surface.py --check    # diff against tools/api_surface.txt
    python tools/api_surface.py --update   # rewrite tools/api_surface.txt

CI runs ``--check``; an intentional API change is shipped by re-running
``--update`` and committing the refreshed snapshot alongside the code, which
makes every drift of the public surface visible in review.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MODULES = (
    "repro.analysis",
    "repro.addg",
    "repro.verifier",
    "repro.checker",
    "repro.service",
    "repro.scenarios",
    "repro.diagnostics",
    "repro.telemetry",
    "repro.server",
    "repro.solvers",
    "repro.presburger",
    "repro.presburger.opcache",
)

SNAPSHOT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "api_surface.txt")


def _format_signature(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(…)"
    parts = []
    seen_keyword_only_marker = False
    for parameter in signature.parameters.values():
        if parameter.kind == parameter.VAR_POSITIONAL:
            parts.append("*" + parameter.name)
            seen_keyword_only_marker = True
            continue
        if parameter.kind == parameter.VAR_KEYWORD:
            parts.append("**" + parameter.name)
            continue
        if parameter.kind == parameter.KEYWORD_ONLY and not seen_keyword_only_marker:
            parts.append("*")
            seen_keyword_only_marker = True
        rendered = parameter.name
        if parameter.default is not parameter.empty:
            rendered += "=…"
        parts.append(rendered)
    return "(" + ", ".join(parts) + ")"


def _describe_class(name: str, cls: type) -> list:
    lines = [f"class {name}{_format_signature(cls)}"]
    for attr_name in sorted(vars(cls)):
        if attr_name.startswith("_"):
            continue
        attribute = vars(cls)[attr_name]
        if isinstance(attribute, property):
            lines.append(f"  property {attr_name}")
        elif isinstance(attribute, staticmethod):
            lines.append(f"  staticmethod {attr_name}{_format_signature(attribute.__func__)}")
        elif isinstance(attribute, classmethod):
            lines.append(f"  classmethod {attr_name}{_format_signature(attribute.__func__)}")
        elif inspect.isfunction(attribute):
            lines.append(f"  method {attr_name}{_format_signature(attribute)}")
        else:
            lines.append(f"  attr {attr_name}")
    return lines


def render_surface() -> str:
    """The full public-surface rendering of every monitored module."""
    lines = [
        "# Public API surface of the repro packages.",
        "# Generated by tools/api_surface.py --update; checked by --check in CI.",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        lines.append("")
        lines.append(f"module {module_name}")
        for name in sorted(getattr(module, "__all__", [])):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                lines.extend(_describe_class(name, obj))
            elif callable(obj):
                lines.append(f"def {name}{_format_signature(obj)}")
            else:
                lines.append(f"const {name}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when the surface differs from the committed snapshot",
    )
    group.add_argument(
        "--update", action="store_true", help="rewrite the snapshot from the current surface"
    )
    args = parser.parse_args(argv)

    surface = render_surface()
    if args.update:
        with open(SNAPSHOT_PATH, "w", encoding="utf-8") as handle:
            handle.write(surface)
        print(f"snapshot updated: {SNAPSHOT_PATH}")
        return 0
    if args.check:
        try:
            with open(SNAPSHOT_PATH, "r", encoding="utf-8") as handle:
                expected = handle.read()
        except OSError as error:
            print(f"error: cannot read snapshot: {error}", file=sys.stderr)
            return 1
        if surface == expected:
            print("API surface matches the committed snapshot.")
            return 0
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            surface.splitlines(keepends=True),
            fromfile="tools/api_surface.txt (committed)",
            tofile="current surface",
        )
        sys.stderr.write("".join(diff))
        print(
            "\nerror: the public API surface drifted from tools/api_surface.txt.\n"
            "If the change is intentional, run `python tools/api_surface.py --update` "
            "and commit the refreshed snapshot.",
            file=sys.stderr,
        )
        return 1
    sys.stdout.write(surface)
    return 0


if __name__ == "__main__":
    sys.exit(main())
