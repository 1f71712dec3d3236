"""The static checker's front end: each source file read and parsed once.

The file-local determinism lint (:mod:`repro.staticcheck.lint`) and the
whole-program call graph (:mod:`repro.staticcheck.callgraph`) read the
same :class:`ModuleInfo` objects, so a run parses every file once and
both passes resolve a name through the one import-alias table
(:func:`collect_aliases`) and the one dotted-name resolver
(:func:`dotted_name`).  A file that does not parse fails the run.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of .py files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                out.extend(
                    os.path.join(root, f) for f in files if f.endswith(".py")
                )
        else:
            out.append(path)
    return sorted(set(out))


def module_name_for(path: str) -> str:
    """Dotted module name of a file, by walking up ``__init__.py`` dirs.

    Files outside any package resolve to their bare stem, so the graph
    also works over synthetic test trees.
    """
    path = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    parts: List[str] = []
    d = os.path.dirname(path)
    while os.path.isfile(os.path.join(d, "__init__.py")):
        parts.insert(0, os.path.basename(d))
        d = os.path.dirname(d)
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts) if parts else stem


@dataclass
class ModuleInfo:
    """One parsed module: its tree, import aliases and symbol tables.

    The call graph fills ``functions``, ``classes`` and ``globals`` when
    it registers the module; the lint reads only the tree and aliases.
    """

    name: str
    path: str
    tree: ast.AST
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)  # local -> qual
    classes: Dict[str, str] = field(default_factory=dict)
    #: Module-level assigned names -> the assigned value expression.
    globals: Dict[str, ast.AST] = field(default_factory=dict)


def collect_aliases(tree: ast.AST, package: str) -> Dict[str, str]:
    """Local name -> dotted import path, relative imports resolved.

    ``package`` is the dotted package the module lives in (``""`` for a
    file outside any package).  A relative import that climbs out of the
    top-level package, or that sits outside any package, stays
    unresolved: Python raises ``ImportError`` on it.
    """
    pkg_parts = package.split(".") if package else []
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the root name only.
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if node.level > len(pkg_parts):
                    continue
                prefix = ".".join(pkg_parts[:len(pkg_parts) - node.level + 1])
                base = f"{prefix}.{base}" if base else prefix
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to its imported dotted path, if any."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    parts.append(aliases[node.id])
    return ".".join(reversed(parts))


def parse_source(
    source: str, path: str, name: str = "", is_pkg: bool = False
) -> ModuleInfo:
    """Parse one module's text; ``SyntaxError`` when it does not parse.

    ``name`` is the dotted module name that relative imports resolve
    against; the default (``""``) places the module outside any package.
    """
    tree = ast.parse(source, filename=path)
    package = name if is_pkg else name.rpartition(".")[0]
    return ModuleInfo(name, path, tree, collect_aliases(tree, package))


def parse_paths(paths: Iterable[str]) -> List[ModuleInfo]:
    """Read and parse every ``.py`` file under ``paths``, sorted by path."""
    modules: List[ModuleInfo] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as fh:
            source = fh.read()
        modules.append(parse_source(
            source,
            os.path.relpath(filename).replace(os.sep, "/"),
            module_name_for(filename),
            os.path.basename(filename) == "__init__.py",
        ))
    return modules
