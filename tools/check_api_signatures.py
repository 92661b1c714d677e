#!/usr/bin/env python
"""Lint gate: the ``repro.api`` facade honours the 5.0 contract.

Ruff has no rule for "public signatures must be keyword-only", so
``make lint`` runs this instead (see the per-file-ignores note in
pyproject.toml).  The check is pure AST — no imports of the package —
and enforces four things on ``src/repro/api.py``:

* **keyword-only**: no public (non-underscore) module-level function
  or public method accepts positional arguments beyond ``self`` — no
  positional-only params, no positional-or-keyword params, no
  ``*args``;
* **surface**: every name the 5.0 contract promises
  (:data:`REQUIRED_SURFACE`) is defined;
* **removed**: none of the six 1.x entry points (:data:`REMOVED`) is
  defined again, and nothing imports ``inspect`` — runners declare the
  spec fields they take instead of having their signatures inspected;
* **version**: ``__api_version__`` has major version
  :data:`EXPECTED_MAJOR`.

Exit status 0 when clean, 1 with one line per offence otherwise.
"""

from __future__ import annotations

import ast
import pathlib
import sys

API_FILE = pathlib.Path(__file__).resolve().parents[1] / "src/repro/api.py"

#: Names the api 5.0 contract promises (functions and classes).
REQUIRED_SURFACE = {
    "ExperimentSpec", "RunOptions", "GoldenVerdict",
    "spec_to_dict", "spec_from_dict",
    "build_cluster", "build_traffic",
    "run", "submit", "run_figures", "verify_goldens",
    "poll", "collect",
}

#: 1.x entry points removed in 3.0; they must not come back.
REMOVED = {
    "run_figure", "run_sweep", "run_scaleout", "run_skew", "run_agg",
    "submit_experiment",
}

#: Required major version of ``__api_version__``.
EXPECTED_MAJOR = 5


def _imports_inspect(node: ast.AST) -> bool:
    """True when ``node`` contains ``import inspect`` or ``from inspect
    import ...``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import) and any(
                a.name.split(".")[0] == "inspect" for a in sub.names):
            return True
        if isinstance(sub, ast.ImportFrom) and (
                sub.module or "").split(".")[0] == "inspect":
            return True
    return False


def _offences(tree: ast.Module, path: pathlib.Path) -> list[str]:
    out = []

    def check(fn: ast.FunctionDef, owner: str = "") -> None:
        if fn.name.startswith("_"):
            return
        name = f"{owner}{fn.name}"
        args = fn.args
        if args.posonlyargs:
            out.append(f"{path}:{fn.lineno}: {name}: positional-only "
                       f"parameters are banned in the facade")
        positional = [a.arg for a in args.args if a.arg != "self"]
        if positional:
            out.append(f"{path}:{fn.lineno}: {name}: parameter(s) "
                       f"{', '.join(positional)} must be keyword-only "
                       f"(add a leading `*,`)")
        if args.vararg is not None:
            out.append(f"{path}:{fn.lineno}: {name}: *{args.vararg.arg} "
                       f"is banned (accepts positional calls)")

    defined = set()
    version = None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            check(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defined.add(node.name)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    check(item, owner=f"{node.name}.")
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if not isinstance(tgt, ast.Name):
                    continue
                defined.add(tgt.id)
                if (tgt.id == "__api_version__"
                        and isinstance(node.value, ast.Constant)):
                    version = node.value.value
                if tgt.id == "__all__":
                    defined.update(
                        e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str))

    for name in sorted(REQUIRED_SURFACE - defined):
        out.append(f"{path}:1: required api 5.0 name {name!r} is not "
                   f"defined")
    for name in sorted(REMOVED & defined):
        out.append(f"{path}:1: 1.x name {name!r} was removed in 3.0 "
                   f"and must not come back; use run/submit")
    if _imports_inspect(tree):
        out.append(f"{path}:1: the facade must not import inspect; "
                   f"experiments declare their spec fields instead")
    if version is None:
        out.append(f"{path}:1: __api_version__ is not a literal "
                   f"assignment")
    elif int(str(version).split(".")[0]) != EXPECTED_MAJOR:
        out.append(f"{path}:1: __api_version__ {version!r} must have "
                   f"major version {EXPECTED_MAJOR}")
    return out


def main(argv: list[str]) -> int:
    path = pathlib.Path(argv[1]) if len(argv) > 1 else API_FILE
    tree = ast.parse(path.read_text(), filename=str(path))
    offences = _offences(tree, path)
    for line in offences:
        print(line)
    if offences:
        print(f"check_api_signatures: {len(offences)} offence(s) — "
              f"the repro.api 5.0 contract is broken", file=sys.stderr)
        return 1
    print(f"check_api_signatures: {path.name} ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
