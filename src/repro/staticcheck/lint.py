"""Determinism lint: an AST pass over the simulator's own source.

The campaign runner's contract — ``--jobs N`` == ``--jobs 1`` == warm
cache, bit for bit — only holds while no code path consults ambient
nondeterminism.  This pass bans the constructs that have historically
broken that contract in workflow systems:

* ``wall-clock`` — ``time.time()`` / ``time.time_ns()`` /
  ``time.monotonic()`` / ``datetime.now()`` / ``utcnow()`` / ``today()``:
  virtual time must come from the simulator, never the host clock.
  (``time.perf_counter`` is allowed: measuring *our own* overhead is not
  simulation state.  Observability code wanting a wall stamp must go
  through the one sanctioned, allowlisted shim
  :func:`repro.observe.clock.clock` — profiling only.)
* ``global-random`` — module-level ``random.*`` and ``np.random.*`` draw
  calls: all randomness must flow through a threaded
  :class:`numpy.random.Generator` (see :mod:`repro.sim.rng`), or two runs
  of the same seed diverge as soon as call order changes.
* ``unseeded-rng`` — ``np.random.default_rng()`` with no seed (ambient
  entropy) or with a constant literal seed (a fresh, caller-invisible
  stream where the caller's seed should flow).
* ``ambient-entropy`` — ``os.urandom``, ``uuid.uuid4``/``uuid.uuid1``,
  ``secrets.*``: host entropy (or host identity) reaching simulation
  state makes two identical cells diverge by construction.
* ``hash-ordering`` — the builtin ``hash()`` used as (or inside) a sort
  key: string hashes vary per process under ``PYTHONHASHSEED``, so the
  resulting order is not reproducible across workers.
* ``fs-ordering`` — iterating ``os.listdir``/``os.scandir``/
  ``glob.glob``/``glob.iglob`` results directly: the OS returns
  directory entries in arbitrary order.  Wrap in ``sorted(...)``
  (order-insensitive reductions like ``sum``/``max``/``set`` are
  exempt).
* ``set-iteration`` — ``for x in {...}`` / ``for x in set(...)``: set
  order depends on ``PYTHONHASHSEED`` for strings, so any decision loop
  over a bare set is nondeterministic across processes.  Iterate
  ``sorted(...)`` instead.
* ``dict-mutation-in-loop`` — adding/removing keys of a dict while
  iterating it (``RuntimeError`` at best, order-dependent behaviour at
  worst).  Iterate ``list(d)`` when mutation is intended.

Deliberate exceptions are declared in ``lint_allowlist.txt`` next to this
module: one ``<path-substring>::<check-id>`` entry per line — optionally
``<path-substring>::<check-id>::<site-substring>`` to suppress a single
sink site (the third field must appear in the finding's location or
message, e.g. a function qualname or the sink's dotted name) — with a
comment saying why.  Entries that no longer suppress anything are
**stale** and fail the lint (``--prune`` rewrites the file without
them), so suppressions cannot silently rot.

``--deep`` chains the whole-program analyses on top of this file-local
pass: the interprocedural determinism taint flow
(:mod:`repro.staticcheck.flow`), the pickle-boundary checker
(:mod:`repro.staticcheck.pickle_safety`) and the concurrency/lifecycle
hazard checks (:mod:`repro.staticcheck.concurrency`).  Both passes read
the same parsed modules (:mod:`repro.staticcheck.source`), and the one
allowlist suppresses deep findings as it does lint findings: a sited
entry names a single finding.

Run stand-alone with::

    python -m repro.staticcheck.lint [paths...] [--deep]
        [--json OUT] [--sarif OUT] [--prune]

or as ``repro-flow lint`` with the same flags; either exits nonzero
when any error-severity finding survives the allowlist, or when the
allowlist has stale entries.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.findings import (
    Finding,
    Severity,
    findings_to_json,
    findings_to_sarif,
    summary_table,
    write_json_file,
)
from repro.staticcheck.source import (
    ModuleInfo,
    dotted_name,
    parse_paths,
    parse_source,
)

#: Layer tag for every finding this module emits.
LAYER = "lint"

#: Dotted call paths that read the host clock.  ``time.perf_counter`` is
#: deliberately absent (measuring our own overhead is not simulation
#: state); the one sanctioned *wall* clock is ``repro.observe.clock``,
#: whose module carries the single allowlist entry.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Dotted call paths that draw host entropy or host identity.
AMBIENT_ENTROPY_CALLS = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.choice",
}

#: Dotted call paths returning directory entries in OS order.
FS_LISTING_CALLS = {
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
}

#: Builtins whose reduction over an iterable is order-insensitive, so
#: feeding them an unsorted listing directly is harmless.
ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "set", "frozenset", "sum", "len", "max", "min", "any", "all",
}

#: Builtins that take a ``key=`` ordering callback.
SORTING_CALLS = {"sorted", "min", "max"}

#: numpy.random attributes that construct generators (deterministic given
#: their arguments) rather than drawing from the hidden global stream.
RNG_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "SeedSequence",
}

#: stdlib ``random`` attributes that are classes, not global-stream draws.
STDLIB_RANDOM_OK = {"Random"}

#: Dict methods that add or remove keys.
DICT_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault"}

#: Default allowlist shipped with the package.
DEFAULT_ALLOWLIST = os.path.join(os.path.dirname(__file__), "lint_allowlist.txt")

#: Fix hints of the file-local (shallow) pass, by the check ids it emits.
_HINTS = {
    "wall-clock": "use the simulator's virtual time (executor.now / sim.now)",
    "global-random": "thread a numpy Generator (see sim/rng.py) instead",
    "unseeded-rng": "accept rng= or seed= from the caller and pass it down",
    "ambient-entropy": "derive ids/draws from the campaign seed instead",
    "hash-ordering": "sort by the value itself, not its per-process hash",
    "fs-ordering": "iterate sorted(os.listdir(...)) for a stable order",
    "set-iteration": "iterate sorted(...) for a deterministic order",
    "dict-mutation-in-loop": "iterate list(d) when you must mutate d",
}

#: Check ids the file-local (shallow) pass can emit.
LINT_CHECK_IDS = tuple(_HINTS)

#: Check ids the ``--deep`` whole-program pass adds.
DEEP_CHECK_IDS = (
    "taint-flow",
    "pickle-lambda",
    "pickle-local-def",
    "pickle-open-handle",
    "pickle-module-state",
    "pickle-unpicklable-target",
    "worker-global-mutation",
    "thread-shared-mutation",
    "generator-pool-cleanup",
    "unclassified-raise",
)

#: Allowlist entry: (path-substring, check-id, site-substring or None).
AllowEntry = Tuple[str, str, Optional[str]]


def allow_match(
    allow: Sequence[AllowEntry],
    path: str,
    check: str,
    location: str = "",
    message: str = "",
    used: Optional[Set[AllowEntry]] = None,
) -> bool:
    """Whether an allowlist entry suppresses this finding.

    An entry matches on (path substring, check id); a sited entry
    additionally requires its site substring to appear in the finding's
    location or message — sink-site granularity.  Matched entries are
    recorded in ``used`` for stale detection.
    """
    hit = False
    for entry in allow:
        part, c, site = entry
        if c != check or part not in path:
            continue
        if site is not None and site not in location and site not in message:
            continue
        hit = True
        if used is not None:
            used.add(entry)
    return hit


class Reporter:
    """One pass's findings, each checked against the allowlist once.

    Every check of the lint and of the deep passes reports through
    :meth:`flag`, which makes an ERROR finding at ``path:line`` unless an
    allowlist entry suppresses it (and records that entry in ``used``).
    """

    def __init__(
        self,
        layer: str,
        allow: Sequence[AllowEntry] = (),
        used: Optional[Set[AllowEntry]] = None,
    ) -> None:
        self.layer = layer
        self.allow = allow
        self.used = used
        self.findings: List[Finding] = []

    def flag(
        self, check: str, path: str, line: int, message: str, hint: str
    ) -> None:
        """Record one finding unless the allowlist suppresses it."""
        location = f"{path}:{line}"
        if not allow_match(
            self.allow, path, check, location, message, self.used
        ):
            self.findings.append(Finding(
                check, Severity.ERROR, self.layer, location, message, hint,
            ))


def sink_for_call(
    node: ast.Call, aliases: Dict[str, str]
) -> Optional[Tuple[str, str]]:
    """Classify one call as a determinism sink: ``(check-id, message)``.

    The single source of truth for call-shaped sinks, shared by the
    file-local pass here and the interprocedural taint flow
    (:mod:`repro.staticcheck.flow`).
    """
    dotted = dotted_name(node.func, aliases)
    if dotted is None:
        return None
    if dotted in WALL_CLOCK_CALLS:
        return (
            "wall-clock",
            f"{dotted}() reads the host clock inside simulation code",
        )
    if dotted in AMBIENT_ENTROPY_CALLS:
        return (
            "ambient-entropy",
            f"{dotted}() draws host entropy; two identical cells diverge",
        )
    if dotted == "numpy.random.default_rng":
        if not node.args and not node.keywords:
            return (
                "unseeded-rng",
                "default_rng() with no seed draws ambient entropy; "
                "runs become unrepeatable",
            )
        if (
            len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, int)
        ):
            return (
                "unseeded-rng",
                f"default_rng({node.args[0].value}) hard-codes a "
                f"constant seed where the caller's seed should flow",
            )
        return None
    if dotted.startswith("numpy.random."):
        tail = dotted.rsplit(".", 1)[1]
        if tail not in RNG_CONSTRUCTORS:
            return (
                "global-random",
                f"{dotted}() draws from numpy's hidden global stream",
            )
        return None
    if dotted.startswith("random."):
        tail = dotted.rsplit(".", 1)[1]
        if tail not in STDLIB_RANDOM_OK:
            return (
                "global-random",
                f"{dotted}() draws from the stdlib global stream",
            )
    return None


def _is_bare_set(node: ast.AST) -> bool:
    """Whether an expression is a set literal/comprehension/constructor."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_fs_listing(node: ast.AST, aliases: Dict[str, str]) -> bool:
    """Whether an expression is a direct unsorted-directory-listing call."""
    if not isinstance(node, ast.Call):
        return False
    return dotted_name(node.func, aliases) in FS_LISTING_CALLS


def _uses_hash(node: ast.AST) -> bool:
    """Whether an expression is (or contains a call to) the builtin hash."""
    if isinstance(node, ast.Name) and node.id == "hash":
        return True
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "hash"
        ):
            return True
    return False


def _dict_iter_source(node: ast.AST) -> Optional[ast.AST]:
    """The mapping expression a for-loop iterates directly, if any.

    Matches ``for k in d``, ``for k in d.keys()/values()/items()`` where
    ``d`` is a name or attribute chain; wrapped iterations
    (``list(d)``, ``sorted(d)``) are the safe idiom and return None.
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        return node
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and isinstance(node.func.value, (ast.Name, ast.Attribute))
    ):
        return node.func.value
    return None


def _dict_mutations(loop: ast.For, source: ast.AST) -> List[ast.AST]:
    """Statements in the loop body that resize the iterated mapping."""
    key = ast.dump(source)
    hits: List[ast.AST] = []
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and ast.dump(target.value) == key
                    ):
                        hits.append(node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and ast.dump(target.value) == key
                    ):
                        hits.append(node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DICT_MUTATORS
                and ast.dump(node.func.value) == key
            ):
                hits.append(node)
    return hits


def _order_insensitive_iters(tree: ast.AST) -> Set[int]:
    """ids of comprehension/listing nodes consumed order-insensitively.

    ``sum(1 for f in os.listdir(d))`` or ``max(os.listdir(d))`` never
    depend on entry order; flagging them would train people to ignore
    the check.
    """
    exempt: Set[int] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ORDER_INSENSITIVE_CONSUMERS
            and node.args
        ):
            continue
        arg = node.args[0]
        exempt.add(id(arg))
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in arg.generators:
                exempt.add(id(gen.iter))
    return exempt


def lint_source(
    source: str,
    path: str = "<string>",
    allow: Sequence[AllowEntry] = (),
    used: Optional[Set[AllowEntry]] = None,
) -> List[Finding]:
    """Lint one module's source text; returns surviving findings."""
    return lint_module(parse_source(source, path), allow, used)


def lint_module(
    module: ModuleInfo,
    allow: Sequence[AllowEntry] = (),
    used: Optional[Set[AllowEntry]] = None,
) -> List[Finding]:
    """Lint one parsed module; returns surviving findings."""
    aliases = module.aliases
    exempt_iters = _order_insensitive_iters(module.tree)
    report = Reporter(LAYER, allow, used)

    def flag(check: str, node: ast.AST, message: str) -> None:
        report.flag(check, module.path, getattr(node, "lineno", 0), message,
                    _HINTS[check])

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            sink = sink_for_call(node, aliases)
            if sink is not None:
                flag(sink[0], node, sink[1])
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in SORTING_CALLS
            ):
                for kw in node.keywords:
                    if kw.arg == "key" and _uses_hash(kw.value):
                        flag(
                            "hash-ordering", node,
                            f"{node.func.id}() orders by builtin hash(); "
                            f"string hashes vary per process under "
                            f"PYTHONHASHSEED",
                        )
        if isinstance(node, ast.For):
            if _is_bare_set(node.iter):
                flag(
                    "set-iteration", node,
                    "for-loop iterates a bare set; order depends on "
                    "PYTHONHASHSEED",
                )
            if _is_fs_listing(node.iter, aliases):
                flag(
                    "fs-ordering", node,
                    "for-loop iterates a directory listing in OS order",
                )
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if _is_bare_set(gen.iter):
                    flag(
                        "set-iteration", node,
                        "comprehension iterates a bare set; order depends "
                        "on PYTHONHASHSEED",
                    )
                if (
                    _is_fs_listing(gen.iter, aliases)
                    and id(gen.iter) not in exempt_iters
                ):
                    flag(
                        "fs-ordering", node,
                        "comprehension iterates a directory listing in "
                        "OS order",
                    )
        if isinstance(node, ast.For):
            source_expr = _dict_iter_source(node.iter)
            if source_expr is not None:
                for hit in _dict_mutations(node, source_expr):
                    flag(
                        "dict-mutation-in-loop", hit,
                        "container is resized while a for-loop iterates it",
                    )
    return report.findings


# --------------------------------------------------------------------- #
# allowlist and tree driving                                            #
# --------------------------------------------------------------------- #

def _allow_entry(raw: str, path: str) -> Optional[AllowEntry]:
    """The entry on one allowlist line; None for a blank or comment line."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    fields = [f.strip() for f in line.split("::")]
    if len(fields) not in (2, 3) or not all(fields):
        raise ValueError(
            f"bad allowlist entry {raw.strip()!r} in {path}; "
            f"expected '<path-substring>::<check-id>"
            f"[::<site-substring>]'"
        )
    return (fields[0], fields[1], fields[2] if len(fields) == 3 else None)


def load_allowlist(path: str) -> List[AllowEntry]:
    """Parse ``<path-substring>::<check-id>[::<site-substring>]`` entries."""
    with open(path, encoding="utf-8") as fh:
        entries = [_allow_entry(raw, path) for raw in fh]
    return [entry for entry in entries if entry is not None]


def lint_paths(
    paths: Iterable[str],
    allow: Sequence[AllowEntry] = (),
    used: Optional[Set[AllowEntry]] = None,
) -> List[Finding]:
    """Lint every .py file under ``paths``; returns surviving findings."""
    return [
        finding for module in parse_paths(paths)
        for finding in lint_module(module, allow, used)
    ]


def stale_entries(
    allow: Sequence[AllowEntry],
    used: Set[AllowEntry],
    files: Sequence[str],
    checks_in_scope: Iterable[str],
) -> List[AllowEntry]:
    """Allowlist entries that suppressed nothing this run.

    An entry is judged only when the run could have exercised it: its
    check id must belong to a pass that actually ran, and its path
    substring must match at least one linted file (entries for files
    outside the lint scope are neither live nor stale).
    """
    scope = set(checks_in_scope)
    return [
        entry for entry in allow
        if entry not in used and entry[1] in scope
        and any(entry[0] in path for path in files)
    ]


def prune_allowlist(path: str, stale: Sequence[AllowEntry]) -> int:
    """Rewrite the allowlist file without the given stale entries."""
    dead = set(stale)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    kept = [raw for raw in lines if _allow_entry(raw, path) not in dead]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    return len(lines) - len(kept)


# --------------------------------------------------------------------- #
# CLI                                                                   #
# --------------------------------------------------------------------- #

def _deep_findings(
    modules: Sequence[ModuleInfo],
    allow: Sequence[AllowEntry],
    used: Set[AllowEntry],
) -> List[Finding]:
    """Run the whole-program analyses over the lint's parsed modules."""
    # Imported lazily: these modules import this one for the sink
    # catalog and the reporter.
    from repro.staticcheck.callgraph import graph_of
    from repro.staticcheck.concurrency import check_concurrency
    from repro.staticcheck.flow import check_flow
    from repro.staticcheck.pickle_safety import check_pickle_safety

    graph = graph_of(modules)
    findings: List[Finding] = []
    findings.extend(check_flow(graph, allow=allow, used=used))
    findings.extend(check_pickle_safety(graph, allow=allow, used=used))
    findings.extend(check_concurrency(graph, allow=allow, used=used))
    return findings


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The lint's flags, for ``repro-lint`` and ``repro-flow lint`` alike."""
    default_target = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument(
        "paths", nargs="*", default=[default_target],
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--allowlist", default=DEFAULT_ALLOWLIST,
        help="allowlist file (<path-substring>::<check-id>[::<site>] per line)",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="add the whole-program analyses: call-graph determinism "
             "taint, pickle-boundary safety, concurrency/lifecycle hazards",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None,
        help="write the findings report as JSON here",
    )
    parser.add_argument(
        "--sarif", dest="sarif_out", default=None,
        help="write the findings report as SARIF 2.1.0 here",
    )
    parser.add_argument(
        "--prune", action="store_true",
        help="rewrite the allowlist without stale entries instead of failing",
    )


def run(args: argparse.Namespace) -> int:
    """Lint ``args.paths`` (flags of :func:`add_arguments`); the exit code."""
    allow: List[AllowEntry] = []
    if args.allowlist and os.path.exists(args.allowlist):
        allow = load_allowlist(args.allowlist)
    used: Set[AllowEntry] = set()
    modules = parse_paths(args.paths)
    findings = [
        finding for module in modules
        for finding in lint_module(module, allow, used)
    ]
    scope: List[str] = list(LINT_CHECK_IDS)
    if args.deep:
        scope += list(DEEP_CHECK_IDS)
        findings.extend(_deep_findings(modules, allow, used))

    for finding in findings:
        print(finding)

    stale = stale_entries(allow, used, [m.path for m in modules], scope)
    if stale and args.prune and args.allowlist:
        removed = prune_allowlist(args.allowlist, stale)
        print(f"pruned {removed} stale allowlist entr(y/ies) "
              f"from {args.allowlist}")
        stale = []
    for part, check, site in stale:
        entry = f"{part}::{check}" + (f"::{site}" if site else "")
        print(
            f"stale allowlist entry {entry!r}: suppresses nothing — "
            f"remove it or run with --prune"
        )

    if args.deep or args.json_out or args.sarif_out:
        print(summary_table(findings, checks=scope))
    if args.json_out:
        write_json_file(args.json_out, findings_to_json(findings))
        print(f"findings -> {args.json_out}")
    if args.sarif_out:
        write_json_file(args.sarif_out, findings_to_sarif(findings))
        print(f"sarif    -> {args.sarif_out}")

    errors = [f for f in findings if f.severity == Severity.ERROR]
    label = "deep lint" if args.deep else "determinism lint"
    if errors or findings:
        print(f"{label}: {len(errors)} error(s) in {len(findings)} finding(s)")
    else:
        print(f"{label}: clean")
    return 1 if errors or stale else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: lint the given paths (default: the installed repro package)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism lint over simulator source",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
