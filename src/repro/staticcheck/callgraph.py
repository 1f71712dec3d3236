"""A module-level call graph over a Python source tree.

The whole-program analyses (:mod:`repro.staticcheck.flow`,
:mod:`repro.staticcheck.pickle_safety`,
:mod:`repro.staticcheck.concurrency`) all need the same substrate: who
calls whom, statically, across the whole of ``src/repro``.  This module
resolves call edges over the modules the front end parsed
(:mod:`repro.staticcheck.source`) with a deliberately conservative set
of rules — edges it cannot prove are *not* invented, so
downstream taint never explodes through common method names like
``get`` or ``update``:

* direct calls to names defined in the same module (including nested
  defs in the enclosing function);
* calls through ``import`` / ``from ... import`` bindings (function- and
  module-local imports both count; relative imports are resolved against
  the importing package by the front end's alias table,
  :func:`repro.staticcheck.source.collect_aliases`);
* ``self.method()`` / ``cls.method()`` resolved through the class and
  its statically-known base chain;
* ``Name.method()`` where ``Name`` is a class (static/class-method
  style) or a local variable whose constructor is visible in the same
  function body (``x = Foo(); x.bar()``), including direct
  constructor-result calls (``Foo().bar()``);
* instantiating a class adds an edge to its ``__init__``.

Attribute calls that resolve to none of the above are recorded in
:attr:`CallGraph.unresolved` for diagnostics but produce no edge: the
graph under-approximates dynamic dispatch, which is the right failure
mode for a lint (missed findings, never avalanches of false ones).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.source import ModuleInfo, dotted_name, parse_paths

#: Receiver names resolved through the enclosing class.
_SELF_NAMES = ("self", "cls")


def local_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """AST nodes belonging to one function body.

    Descends into everything *except* nested function/class definitions
    (their bodies are their own graph nodes); lambdas stay local to the
    enclosing function.  The nested def/class statements themselves are
    yielded, so callers can still see that they exist.
    """
    body = list(getattr(root, "body", []))
    stack: List[ast.AST] = body[::-1]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # the definition is visible; its body is not ours
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def param_names(fn: ast.AST) -> Set[str]:
    """The parameter names of one function definition."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    return names


@dataclass
class FunctionInfo:
    """One statically-known function or method."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    node: ast.AST
    cls: Optional[str] = None  # owning class qualname, if a method
    is_generator: bool = False
    #: The body's :func:`local_nodes`, walked once when the graph is
    #: built; every pass reads this list instead of walking again.
    nodes: List[ast.AST] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One statically-known class with its resolved base chain."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    node: ast.AST
    bases: List[str] = field(default_factory=list)  # qualnames or raw names
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


class CallGraph:
    """The resolved call graph; see the module docstring for edge rules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> [(callee qualname, call lineno)]
        self.edges: Dict[str, List[Tuple[str, int]]] = {}
        #: callee qualname -> its callers, one per edge (reverse edges)
        self.callers: Dict[str, List[str]] = {}
        #: caller qualname -> [(unresolved attr name, lineno)]
        self.unresolved: Dict[str, List[Tuple[str, int]]] = {}

    # ------------------------------------------------------------- #
    # queries                                                       #
    # ------------------------------------------------------------- #

    def callees(self, qualname: str) -> List[str]:
        """Distinct callee qualnames of one function, edge order."""
        seen: List[str] = []
        for callee, _lineno in self.edges.get(qualname, []):
            if callee not in seen:
                seen.append(callee)
        return seen

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            stack.extend(c for c in self.callees(fn) if c not in seen)
        return seen

    def call_chain(self, root: str, targets: Set[str]) -> Optional[List[str]]:
        """Shortest root -> target qualname path (BFS), or None."""
        if root not in self.functions:
            return None
        if root in targets:
            return [root]
        parent: Dict[str, str] = {root: ""}
        queue = [root]
        while queue:
            nxt: List[str] = []
            for fn in queue:
                for callee in self.callees(fn):
                    if callee in parent:
                        continue
                    parent[callee] = fn
                    if callee in targets:
                        chain = [callee]
                        while parent[chain[-1]]:
                            chain.append(parent[chain[-1]])
                        return chain[::-1]
                    nxt.append(callee)
            queue = nxt
        return None

    def function_nodes(self, qualname: str) -> Iterator[ast.AST]:
        """The AST nodes local to one function (see :func:`local_nodes`)."""
        info = self.functions.get(qualname)
        return iter(()) if info is None else iter(info.nodes)

    def method_on(self, class_qual: str, method: str) -> Optional[str]:
        """Resolve a method through the class's static base chain."""
        seen: Set[str] = set()
        stack = [class_qual]
        while stack:
            cq = stack.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.classes.get(cq)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None


def build_callgraph(paths: Sequence[str]) -> CallGraph:
    """Parse every ``.py`` file under ``paths`` and resolve call edges."""
    return graph_of(parse_paths(paths))


def graph_of(modules: Iterable[ModuleInfo]) -> CallGraph:
    """Resolve call edges over already-parsed modules (in path order).

    Raises ``ValueError`` naming both files when two files have one
    module name: the graph keys modules by name, and Python could not
    import both under it either.
    """
    graph = CallGraph()
    for module in modules:
        seen = graph.modules.get(module.name)
        if seen is not None:
            raise ValueError(
                f"{seen.path} and {module.path} are both module "
                f"{module.name!r}; the call graph cannot tell them apart"
            )
        graph.modules[module.name] = module
        _collect_defs(graph, module)
    _resolve_bases(graph)
    for fn in graph.functions.values():
        _edges_for_function(graph, graph.modules[fn.module], fn)
    return graph


# ----------------------------------------------------------------- #
# construction passes                                               #
# ----------------------------------------------------------------- #

def _collect_defs(graph: CallGraph, module: ModuleInfo) -> None:
    """Register module-level (and nested) functions and classes."""

    def add_function(node, scope: str, cls: Optional[str]) -> None:
        qual = f"{scope}.{node.name}" if scope else node.name
        nodes = list(local_nodes(node))
        graph.functions[qual] = FunctionInfo(
            qualname=qual, module=module.name, name=node.name,
            path=module.path, lineno=node.lineno, node=node, cls=cls,
            is_generator=any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in nodes
            ),
            nodes=nodes,
        )
        # Nested defs are functions in their own right.
        for child in nodes:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(child, qual, None)
            elif isinstance(child, ast.ClassDef):
                add_class(child, qual)

    def add_class(node: ast.ClassDef, scope: str) -> None:
        qual = f"{scope}.{node.name}" if scope else node.name
        cls = ClassInfo(
            qualname=qual, module=module.name, name=node.name,
            path=module.path, lineno=node.lineno, node=node,
        )
        graph.classes[qual] = cls
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[child.name] = f"{qual}.{child.name}"
                add_function(child, qual, qual)
            elif isinstance(child, ast.ClassDef):
                add_class(child, qual)

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = f"{module.name}.{node.name}"
            add_function(node, module.name, None)
        elif isinstance(node, ast.ClassDef):
            module.classes[node.name] = f"{module.name}.{node.name}"
            add_class(node, module.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and node.value is not None:
                    module.globals[target.id] = node.value


def _resolve_bases(graph: CallGraph) -> None:
    """Turn raw base-class expressions into class qualnames where possible."""
    for cls in graph.classes.values():
        module = graph.modules[cls.module]
        for base in cls.node.bases:
            resolved = resolve_symbol(graph, module, base)
            if resolved and resolved[0] == "class":
                cls.bases.append(resolved[1])
            else:
                dotted = dotted_name(base, module.aliases)
                if dotted and dotted in graph.classes:
                    cls.bases.append(dotted)
                elif isinstance(base, ast.Name):
                    cls.bases.append(base.id)  # raw (builtin) name


def resolve_symbol(
    graph: CallGraph, module: ModuleInfo, node: ast.AST,
    local_defs: Optional[Dict[str, str]] = None,
) -> Optional[Tuple[str, str]]:
    """Resolve a Name/Attribute to ``("func"|"class", qualname)``."""
    if isinstance(node, ast.Name):
        if local_defs and node.id in local_defs:
            return ("func", local_defs[node.id])
        if node.id in module.functions:
            return ("func", module.functions[node.id])
        if node.id in module.classes:
            return ("class", module.classes[node.id])
        target = module.aliases.get(node.id)
        if target:
            if target in graph.functions:
                return ("func", target)
            if target in graph.classes:
                return ("class", target)
        return None
    dotted = dotted_name(node, module.aliases)
    if dotted:
        if dotted in graph.functions:
            return ("func", dotted)
        if dotted in graph.classes:
            return ("class", dotted)
    return None


def _edges_for_function(
    graph: CallGraph, module: ModuleInfo, fn: FunctionInfo
) -> None:
    """Extract the call edges of one function defined in ``module``."""
    edges = graph.edges.setdefault(fn.qualname, [])
    unresolved = graph.unresolved.setdefault(fn.qualname, [])

    # Nested defs visible from this body, by bare name.
    local_defs: Dict[str, str] = {}
    # Local variables whose constructor class is statically known.
    local_types: Dict[str, str] = {}

    for node in fn.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local_defs[node.name] = f"{fn.qualname}.{node.name}"
    for node in fn.nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            resolved = resolve_symbol(
                graph, module, node.value.func, local_defs
            )
            if resolved and resolved[0] == "class":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_types[target.id] = resolved[1]

    def add(callee: Optional[str], lineno: int) -> None:
        if callee is not None and callee in graph.functions:
            edges.append((callee, lineno))
            graph.callers.setdefault(callee, []).append(fn.qualname)

    for node in fn.nodes:
        if not isinstance(node, ast.Call):
            continue
        lineno = getattr(node, "lineno", fn.lineno)
        func = node.func
        resolved = resolve_symbol(graph, module, func, local_defs)
        if resolved:
            kind, target = resolved
            if kind == "func":
                add(target, lineno)
            else:
                add(graph.method_on(target, "__init__"), lineno)
            continue
        if not isinstance(func, ast.Attribute):
            continue
        recv = func.value
        method = func.attr
        if (
            isinstance(recv, ast.Name)
            and recv.id in _SELF_NAMES
            and fn.cls is not None
        ):
            add(graph.method_on(fn.cls, method), lineno)
        elif isinstance(recv, ast.Name) and recv.id in local_types:
            add(graph.method_on(local_types[recv.id], method), lineno)
        elif isinstance(recv, ast.Call):
            inner = resolve_symbol(graph, module, recv.func, local_defs)
            if inner and inner[0] == "class":
                add(graph.method_on(inner[1], method), lineno)
            else:
                unresolved.append((method, lineno))
        else:
            recv_sym = resolve_symbol(graph, module, recv, local_defs)
            if recv_sym and recv_sym[0] == "class":
                add(graph.method_on(recv_sym[1], method), lineno)
            else:
                unresolved.append((method, lineno))
