"""Concurrency and lifecycle hazard checks over the call graph.

Three bug classes PRs 5–7 met in the wild, now machine-checked:

* ``worker-global-mutation`` — code reachable from the pool's worker
  entry points (:func:`repro.runner.jobs.execute_payload` and friends)
  that mutates module- or class-level state: a ``global`` rebind, a
  mutating method call / subscript store on a module-level container, or
  an assignment to a class attribute.  Under ``fork`` the mutation is
  invisible to the parent; under ``forkserver``/``spawn`` it is invisible
  to *other* workers too — either way the processes silently diverge.
  Deliberate per-process memos are allowlisted with a written
  justification, which is exactly what the allowlist's site field is
  for.
* ``generator-pool-cleanup`` — a generator function that (transitively)
  dispatches work to a multiprocessing pool but contains no
  ``try/finally`` and no ``with closing(...)``: if the consumer abandons
  the generator mid-stream, ``GeneratorExit`` unwinds it with the pool
  iterator half-consumed and the pool unusable for the next batch — the
  exact PR 7 bug class.
* ``unclassified-raise`` — a ``raise SomeError(...)`` reachable from
  worker code where ``SomeError`` does not map to an explicit category
  in :data:`repro.runner.health.FAILURE_TAXONOMY`, the one table
  :func:`~repro.runner.health.classify_exception` reads at runtime.
  Unknown classes fall to the unknown-permanent fallback at runtime,
  which silently disables retry for genuinely transient conditions —
  every exception class a worker can raise must be a *deliberate*
  taxonomy decision, and raising ``BaseException`` family members
  (``SystemExit``, ``KeyboardInterrupt``) escapes the
  ``except Exception`` failure capture entirely.
* ``thread-shared-mutation`` — the in-process sibling of
  ``worker-global-mutation``, introduced with the campaign service:
  module- or class-level state mutated by code reachable from functions
  that run on *threads sharing one interpreter* — the HTTP API's
  handler threads and the service worker's store-polling loop.  There
  the hazard is not divergence but a data race.  Mutations lexically
  inside a ``with <...lock...>:`` block are accepted (the one static
  shape that proves intent); anything else needs a written allowlist
  justification (e.g. a GIL-atomic memo store that at worst recomputes).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.runner.health import FAILURE_TAXONOMY
from repro.staticcheck.callgraph import (
    CallGraph,
    FunctionInfo,
    local_nodes,
)
from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.lint import allow_match
from repro.staticcheck.pickle_safety import POOL_DISPATCH_METHODS

#: Layer tag for every finding this module emits.
LAYER = "concurrency"

#: Pool worker entry points checked when present in the graph.
DEFAULT_WORKER_ROOTS = (
    "repro.runner.jobs.execute_payload",
    "repro.runner.jobs.execute_sim",
    "repro.runner.jobs.execute_timing",
)

#: Container methods that mutate their receiver.
MUTATOR_METHODS = {
    "append", "add", "clear", "update", "pop", "popitem", "setdefault",
    "extend", "insert", "remove", "discard",
}

#: Exception names that are *never* acceptable at a worker raise site:
#: too generic to classify, or outside ``except Exception`` entirely.
UNCLASSIFIABLE_NAMES = {
    "Exception", "BaseException", "SystemExit", "KeyboardInterrupt",
    "GeneratorExit",
}


#: Entry points that run on threads sharing one interpreter: the HTTP
#: API's per-request handler threads and the worker daemon's poll loop
#: (which shares its process with heartbeat-time store access).
DEFAULT_THREAD_ROOTS = (
    "repro.service.api.ServiceHandler.do_GET",
    "repro.service.api.ServiceHandler.do_POST",
    "repro.service.worker.ServiceWorker.run",
    # The graph cannot resolve `self.server.store.submit()`-style
    # instance-attribute chains, so the shared JobStore's public surface
    # is rooted explicitly: every one of these runs on whichever handler
    # thread (or worker loop) called it.
    "repro.service.store.JobStore.submit",
    "repro.service.store.JobStore.lease",
    "repro.service.store.JobStore.mark_running",
    "repro.service.store.JobStore.heartbeat",
    "repro.service.store.JobStore.release",
    "repro.service.store.JobStore.reclaim_expired",
    "repro.service.store.JobStore.complete",
    "repro.service.store.JobStore.tick",
    "repro.service.store.JobStore.data_version",
    "repro.service.store.JobStore.has_queued",
    "repro.service.store.JobStore.counts",
    "repro.service.store.JobStore.campaign",
    "repro.service.store.JobStore.campaigns",
    "repro.service.store.JobStore.cells",
    "repro.service.store.JobStore.cell",
    "repro.service.store.JobStore.dump",
)


def default_worker_roots(graph: CallGraph) -> List[str]:
    return [r for r in DEFAULT_WORKER_ROOTS if r in graph.functions]


def default_thread_roots(graph: CallGraph) -> List[str]:
    return [r for r in DEFAULT_THREAD_ROOTS if r in graph.functions]


# ------------------------------------------------------------------ #
# shared helpers                                                     #
# ------------------------------------------------------------------ #

def _local_bindings(info: FunctionInfo) -> Set[str]:
    """Names bound inside the function (params, assigns, loops, withs)."""
    args = info.node.args
    bound = {
        a.arg for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)

    def add_target(target: ast.AST) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                bound.add(node.id)

    for node in local_nodes(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    add_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            add_target(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    add_target(item.optional_vars)
    return bound


def _resolve_class(graph: CallGraph, module, node: ast.AST) -> Optional[str]:
    """Resolve an expression to a class qualname, if statically known."""
    from repro.staticcheck.callgraph import _resolve_symbol

    resolved = _resolve_symbol(graph, module, node)
    if resolved and resolved[0] == "class":
        return resolved[1]
    return None


# ------------------------------------------------------------------ #
# shared-state mutation scanning                                     #
# ------------------------------------------------------------------ #

def _state_mutations(
    graph: CallGraph, qual: str
) -> Tuple[Optional[object], List[Tuple[ast.AST, str]]]:
    """``(module, [(node, what), ...])`` mutation sites in one function.

    A site is a mutation of state that outlives the call: a ``global``
    rebind, a subscript store / delete / mutating method call on a
    module-level container, or an assignment to a class attribute.
    The *meaning* of a site (process divergence vs. thread race) is the
    caller's to judge.
    """
    info = graph.functions[qual]
    module = graph.modules.get(info.module)
    if module is None:
        return None, []
    declared_global: Set[str] = set()
    for node in local_nodes(info.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    local = _local_bindings(info) - declared_global
    sites: List[Tuple[ast.AST, str]] = []

    def is_module_state(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Name)
            and node.id not in local
            and (node.id in module.globals or node.id in declared_global)
        ):
            return node.id
        return None

    for node in local_nodes(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    sites.append((node, f"module global {target.id!r}"))
                elif isinstance(target, ast.Subscript):
                    name = is_module_state(target.value)
                    if name is not None:
                        sites.append(
                            (node, f"module-level container {name!r}")
                        )
                elif isinstance(target, ast.Attribute):
                    cls = _resolve_class(graph, module, target.value)
                    if cls is not None:
                        sites.append(
                            (node, f"class attribute {cls}.{target.attr}")
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    name = is_module_state(target.value)
                    if name is not None:
                        sites.append(
                            (node, f"module-level container {name!r}")
                        )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            name = is_module_state(node.func.value)
            if name is not None:
                sites.append((
                    node,
                    f"module-level container {name!r} "
                    f"(.{node.func.attr}())",
                ))
    return module, sites


# ------------------------------------------------------------------ #
# worker-global-mutation                                             #
# ------------------------------------------------------------------ #

def check_worker_mutation(
    graph: CallGraph,
    worker_roots: Optional[Iterable[str]] = None,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> List[Finding]:
    """Module/class-state mutation reachable from worker entry points."""
    roots = (
        list(worker_roots) if worker_roots is not None
        else default_worker_roots(graph)
    )
    findings: List[Finding] = []
    for qual in sorted(graph.reachable(roots)):
        info = graph.functions[qual]
        module, sites = _state_mutations(graph, qual)
        if module is None:
            continue
        for node, what in sites:
            lineno = getattr(node, "lineno", info.lineno)
            location = f"{module.path}:{lineno}"
            message = (
                f"worker-reachable {qual} mutates {what}; workers and "
                f"parent silently diverge across the process boundary"
            )
            if allow_match(
                allow, module.path, "worker-global-mutation",
                location, message, used,
            ):
                continue
            findings.append(Finding(
                "worker-global-mutation", Severity.ERROR, LAYER, location,
                message,
                "make the state per-call, or allowlist with a written "
                "justification if it is a deliberate per-process memo",
            ))
    return findings


# ------------------------------------------------------------------ #
# thread-shared-mutation                                             #
# ------------------------------------------------------------------ #

def _mentions_lock(expr: ast.AST) -> bool:
    """Whether an expression's names make it recognizably a lock."""
    for sub in ast.walk(expr):
        name = (
            sub.id if isinstance(sub, ast.Name)
            else sub.attr if isinstance(sub, ast.Attribute)
            else ""
        )
        if "lock" in name.lower():
            return True
    return False


def _lock_guarded_ranges(info: FunctionInfo) -> List[Tuple[int, int]]:
    """Line ranges of ``with`` blocks whose context names a lock."""
    ranges: List[Tuple[int, int]] = []
    for node in local_nodes(info.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(_mentions_lock(item.context_expr) for item in node.items):
                ranges.append(
                    (node.lineno, getattr(node, "end_lineno", node.lineno)
                     or node.lineno)
                )
    return ranges


def check_thread_mutation(
    graph: CallGraph,
    thread_roots: Optional[Iterable[str]] = None,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> List[Finding]:
    """Unlocked shared-state mutation reachable from thread entry points.

    The in-process sibling of :func:`check_worker_mutation`: the roots
    run on threads sharing one interpreter (HTTP handler threads, the
    service worker's loop), so a module-global mutation is a data race,
    not a divergence.  Mutations lexically inside a ``with <...lock...>``
    block pass — naming the guard is the one static shape that proves
    the race was considered; everything else is flagged (or allowlisted
    with a written justification, e.g. GIL-atomic memo stores).
    """
    roots = (
        list(thread_roots) if thread_roots is not None
        else default_thread_roots(graph)
    )
    findings: List[Finding] = []
    for qual in sorted(graph.reachable(roots)):
        info = graph.functions[qual]
        module, sites = _state_mutations(graph, qual)
        if module is None:
            continue
        guarded = _lock_guarded_ranges(info)
        for node, what in sites:
            lineno = getattr(node, "lineno", info.lineno)
            if any(lo <= lineno <= hi for lo, hi in guarded):
                continue
            location = f"{module.path}:{lineno}"
            message = (
                f"thread-reachable {qual} mutates {what} outside any "
                f"lock; threads sharing the interpreter race on it"
            )
            if allow_match(
                allow, module.path, "thread-shared-mutation",
                location, message, used,
            ):
                continue
            findings.append(Finding(
                "thread-shared-mutation", Severity.ERROR, LAYER, location,
                message,
                "guard the mutation with `with <lock>:`, make the state "
                "per-call, or allowlist with a written justification if "
                "the race is benign by construction",
            ))
    return findings


# ------------------------------------------------------------------ #
# generator-pool-cleanup                                             #
# ------------------------------------------------------------------ #

def _dispatching_functions(graph: CallGraph) -> Set[str]:
    """Functions that (transitively) dispatch work to a pool."""
    base: Set[str] = set()
    for qual in graph.functions:
        for node in graph.function_nodes(qual):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in POOL_DISPATCH_METHODS
            ):
                base.add(qual)
                break
    callers: Dict[str, List[str]] = {}
    for caller, edges in graph.edges.items():
        for callee, _lineno in edges:
            callers.setdefault(callee, []).append(caller)
    work = list(base)
    while work:
        fn = work.pop()
        for caller in callers.get(fn, ()):
            if caller not in base:
                base.add(caller)
                work.append(caller)
    return base


def _has_cleanup_path(info: FunctionInfo) -> bool:
    """try/finally or ``with closing(...)`` anywhere in the body."""
    for node in local_nodes(info.node):
        if isinstance(node, ast.Try) and node.finalbody:
            return True
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    func = expr.func
                    name = func.id if isinstance(func, ast.Name) else (
                        func.attr if isinstance(func, ast.Attribute) else ""
                    )
                    if name == "closing":
                        return True
    return False


def check_generator_cleanup(
    graph: CallGraph,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> List[Finding]:
    """Pool-dispatching generators without a guaranteed cleanup path."""
    findings: List[Finding] = []
    dispatchers = _dispatching_functions(graph)
    for qual in sorted(dispatchers):
        info = graph.functions[qual]
        if not info.is_generator or _has_cleanup_path(info):
            continue
        module = graph.modules.get(info.module)
        path = module.path if module else info.path
        location = f"{path}:{info.lineno}"
        message = (
            f"generator {qual} dispatches to a process pool with no "
            f"try/finally or closing() path; abandoning it mid-stream "
            f"strands the pool's in-flight iterator"
        )
        if allow_match(
            allow, path, "generator-pool-cleanup", location, message, used
        ):
            continue
        findings.append(Finding(
            "generator-pool-cleanup", Severity.ERROR, LAYER, location,
            message,
            "wrap the dispatch/consume loop in try/finally and dispose "
            "the pool iterator there",
        ))
    return findings


# ------------------------------------------------------------------ #
# unclassified-raise                                                 #
# ------------------------------------------------------------------ #

def classify_static(graph: CallGraph, class_name: str) -> Optional[str]:
    """Category of an exception class qualname/name, or None if unknown.

    Walks the statically-resolved base chain closest-first, matching
    class *names* against :data:`~repro.runner.health.FAILURE_TAXONOMY`
    at every step — the table and the rule the runtime classifier uses.
    """
    seen: Set[str] = set()
    stack = [class_name]
    while stack:
        current = stack.pop(0)
        if current in seen:
            continue
        seen.add(current)
        bare = current.rsplit(".", 1)[-1]
        if bare in UNCLASSIFIABLE_NAMES:
            return None
        if bare in FAILURE_TAXONOMY:
            return FAILURE_TAXONOMY[bare]
        cls = graph.classes.get(current)
        if cls is not None:
            stack.extend(cls.bases)
    return None


def check_unclassified_raises(
    graph: CallGraph,
    worker_roots: Optional[Iterable[str]] = None,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> List[Finding]:
    """Worker-reachable raise sites outside the failure taxonomy."""
    from repro.staticcheck.callgraph import _resolve_symbol

    roots = (
        list(worker_roots) if worker_roots is not None
        else default_worker_roots(graph)
    )
    findings: List[Finding] = []
    for qual in sorted(graph.reachable(roots)):
        info = graph.functions[qual]
        module = graph.modules.get(info.module)
        if module is None:
            continue
        local = _local_bindings(info)
        for node in graph.function_nodes(qual):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            name: Optional[str] = None
            resolved = _resolve_symbol(graph, module, target)
            if resolved and resolved[0] == "class":
                name = resolved[1]
            elif isinstance(target, ast.Name):
                if target.id in local or not target.id[:1].isupper():
                    continue  # re-raising a caught/local exception object
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            else:
                continue
            if classify_static(graph, name) is not None:
                continue
            lineno = getattr(node, "lineno", info.lineno)
            location = f"{module.path}:{lineno}"
            bare = name.rsplit(".", 1)[-1]
            message = (
                f"worker-reachable {qual} raises {bare}, which "
                f"classify_exception cannot place in the failure "
                f"taxonomy (falls to the unknown-permanent fallback)"
            )
            if allow_match(
                allow, module.path, "unclassified-raise",
                location, message, used,
            ):
                continue
            findings.append(Finding(
                "unclassified-raise", Severity.ERROR, LAYER, location,
                message,
                "derive the class from a classified base (e.g. "
                "RuntimeError or TransientCellError) or extend the "
                "taxonomy deliberately",
            ))
    return findings


# ------------------------------------------------------------------ #
# combined entry point                                               #
# ------------------------------------------------------------------ #

def check_concurrency(
    graph: CallGraph,
    worker_roots: Optional[Iterable[str]] = None,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> List[Finding]:
    """All concurrency/lifecycle findings (see the module docstring)."""
    findings: List[Finding] = []
    findings.extend(
        check_worker_mutation(graph, worker_roots, allow=allow, used=used)
    )
    findings.extend(check_thread_mutation(graph, allow=allow, used=used))
    findings.extend(check_generator_cleanup(graph, allow=allow, used=used))
    findings.extend(
        check_unclassified_raises(graph, worker_roots, allow=allow, used=used)
    )
    return findings
