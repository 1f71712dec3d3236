"""Pickle-boundary safety for worker payloads.

Everything a :class:`~repro.runner.pool.CampaignRunner` ships to a pool
worker crosses a fork/forkserver/spawn pickle boundary twice: the
payload on the way out, the record on the way back.  The runner's
contract (:mod:`repro.runner.jobs`) is that payloads are *plain data* —
dicts of JSON-ish values rebuilt by factory specs on the worker side —
because anything richer either fails to pickle (closures, lambdas, open
handles, locally-defined classes) or, worse, pickles *silently wrong*
(a captured module-level mutable is copied at dispatch time, so parent
and worker quietly diverge afterwards).

This pass proves the contract statically.  It finds the payload
construction sites by name (``payload`` / ``_payload_for`` methods, the
runner convention), walks everything reachable from them through the
call graph, and flags inside that cone:

* ``pickle-lambda`` — a lambda stored into a payload dict;
* ``pickle-local-def`` — a function or class defined inside the
  enclosing function stored into a payload dict (closures and local
  classes cannot be pickled by reference);
* ``pickle-open-handle`` — a value bound from ``open(...)`` stored into
  a payload dict (file handles do not survive any start method);
* ``pickle-module-state`` — a module-level mutable global stored into a
  payload dict (the worker gets a snapshot copy, not the shared
  object — mutation after dispatch diverges silently).

Independently, every pool dispatch call in the tree
(``.map``/``.imap``/``.imap_unordered``/``.starmap``/``.apply_async``/…)
is checked for an unpicklable *target*: the dispatched callable must be
a module-level function, never a lambda or a nested def
(``pickle-unpicklable-target``).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import (
    CallGraph,
    FunctionInfo,
    param_names,
)
from repro.staticcheck.findings import Finding
from repro.staticcheck.lint import Reporter

#: Layer tag for every finding this module emits.
LAYER = "pickle"

#: Function names treated as payload construction sites (the runner
#: convention: SimJob.payload / TimingJob.payload / _payload_for).
PAYLOAD_BUILDER_NAMES = ("payload", "_payload_for", "build_payload")

#: Pool methods whose first argument crosses the pickle boundary.
POOL_DISPATCH_METHODS = (
    "map", "imap", "imap_unordered", "starmap", "starmap_async",
    "map_async", "apply_async",
)

#: Constructor names whose module-level result is a mutable container.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
}


def payload_builders(graph: CallGraph) -> List[str]:
    """Payload-construction functions present in the graph, sorted."""
    return sorted(
        qual for qual, info in graph.functions.items()
        if info.name in PAYLOAD_BUILDER_NAMES
    )


def _is_mutable_global(node: Optional[ast.AST]) -> bool:
    """Whether a module-level assigned value is a mutable container."""
    if node is None:
        return False
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _function_locals(info: FunctionInfo) -> Tuple[Set[str], Set[str], Set[str]]:
    """(nested def/class names, open-handle locals, parameter names)."""
    local_defs: Set[str] = set()
    open_handles: Set[str] = set()
    for node in info.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local_defs.add(node.name)
        elif isinstance(node, ast.Assign) and _is_open_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    open_handles.add(target.id)
        elif isinstance(node, ast.With):
            for item in node.items:
                if (
                    _is_open_call(item.context_expr)
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    open_handles.add(item.optional_vars.id)
    return local_defs, open_handles, param_names(info.node)


def _is_open_call(node: Optional[ast.AST]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    )


def check_pickle_safety(
    graph: CallGraph,
    builders: Optional[Iterable[str]] = None,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> List[Finding]:
    """All pickle-boundary findings over the graph (see module docs)."""
    report = Reporter(LAYER, allow, used)
    builder_list = (
        list(builders) if builders is not None else payload_builders(graph)
    )
    cone = graph.reachable(builder_list)

    for qual in sorted(cone):
        info = graph.functions[qual]
        module = graph.modules[info.module]
        local_defs, open_handles, params = _function_locals(info)

        def classify_value(node: ast.AST) -> None:
            lineno = getattr(node, "lineno", info.lineno)
            if isinstance(node, ast.Lambda):
                report.flag(
                    "pickle-lambda", module.path, lineno,
                    f"{qual} stores a lambda in a worker payload; lambdas "
                    f"cannot cross the pool's pickle boundary",
                    "ship data and rebuild the callable worker-side "
                    "(factory spec)",
                )
            elif _is_open_call(node):
                report.flag(
                    "pickle-open-handle", module.path, lineno,
                    f"{qual} stores an open file handle in a worker "
                    f"payload; handles do not survive the pickle boundary",
                    "ship the path and reopen in the worker",
                )
            elif isinstance(node, ast.Name):
                name = node.id
                if name in params:
                    return  # caller-supplied: checked at its own source
                if name in local_defs:
                    report.flag(
                        "pickle-local-def", module.path, lineno,
                        f"{qual} stores locally-defined {name!r} in a "
                        f"worker payload; local functions/classes cannot "
                        f"be pickled by reference",
                        "hoist the definition to module level",
                    )
                elif name in open_handles:
                    report.flag(
                        "pickle-open-handle", module.path, lineno,
                        f"{qual} stores open handle {name!r} in a worker "
                        f"payload; handles do not survive the pickle "
                        f"boundary",
                        "ship the path and reopen in the worker",
                    )
                elif name not in module.functions and name not in module.classes:
                    value = module.globals.get(name)
                    if _is_mutable_global(value):
                        report.flag(
                            "pickle-module-state", module.path, lineno,
                            f"{qual} stores module-level mutable {name!r} "
                            f"in a worker payload; the worker receives a "
                            f"dispatch-time snapshot that silently "
                            f"diverges from the parent's copy",
                            "pass an immutable view or rebuild "
                            "worker-side from plain data",
                        )
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                for element in node.elts:
                    classify_value(element)
            elif isinstance(node, ast.Dict):
                for value in node.values:
                    if value is not None:
                        classify_value(value)

        for node in info.nodes:
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                classify_value(node.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        classify_value(node.value)

    _check_pool_targets(graph, report)
    return report.findings


def _check_pool_targets(graph: CallGraph, report: Reporter) -> None:
    """Flag unpicklable callables handed to pool dispatch methods."""
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        module = graph.modules[info.module]
        local_defs = {
            n.name for n in info.nodes
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in graph.function_nodes(qual):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in POOL_DISPATCH_METHODS
                and node.args
            ):
                continue
            target = node.args[0]
            problem = None
            if isinstance(target, ast.Lambda):
                problem = "a lambda"
            elif isinstance(target, ast.Name) and target.id in local_defs:
                problem = f"nested function {target.id!r}"
            if problem is None:
                continue
            report.flag(
                "pickle-unpicklable-target", module.path,
                getattr(node, "lineno", info.lineno),
                f"{qual} dispatches {problem} to "
                f"{node.func.attr}(); pool targets must be module-level "
                f"functions to pickle under spawn/forkserver",
                "hoist the target to module level",
            )
