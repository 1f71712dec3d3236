"""Interprocedural determinism taint over the call graph.

The file-local lint (:mod:`repro.staticcheck.lint`) sees a sink only in
the function that contains it.  This pass makes the property
*whole-program*: a campaign-entry root whose transitive callees reach a
wall-clock read, a global-stream random draw, an unseeded generator or
an ambient-entropy source is flagged **at the root**, with the shortest
call chain from the root to the sink — because that is the function
whose output the determinism gate actually bit-compares.

Mechanics:

* every function gets a **taint summary**: the determinism sinks its
  own body contains (classified by the shared
  :func:`repro.staticcheck.lint.sink_for_call` catalog), minus sinks the
  allowlist suppresses — an allowlisted sink (e.g. the sanctioned
  ``repro.observe.clock`` shim) seeds no taint, which is exactly the
  sink-site granularity the allowlist's third field exists for;
* taint propagates backwards over call edges to a fixed point;
* each tainted **root** produces one ``taint-flow`` finding per distinct
  sink check id, carrying the chain
  ``root -> callee -> ... -> sink() at path:line``.

Roots default to the campaign entry points: the worker executor
(``repro.runner.jobs.execute_sim``), the batch admission loop
(``repro.runner.pool.CampaignRunner.run_batches``) and every scheduler
``schedule``/``schedule_workflow`` plan entry point under
``repro.schedulers``.  Linting a tree that contains none of these (a
test fixture, a subpackage) simply checks whatever roots it does
contain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.staticcheck.callgraph import CallGraph
from repro.staticcheck.findings import Finding
from repro.staticcheck.lint import Reporter, allow_match, sink_for_call

#: Layer tag for every finding this module emits.
LAYER = "flow"

#: Campaign-entry roots always checked when present in the graph.
DEFAULT_ROOTS = (
    "repro.runner.jobs.execute_sim",
    "repro.runner.jobs.execute_payload",
    "repro.runner.pool.CampaignRunner.run_batches",
    "repro.runner.pool.CampaignRunner.run_sims",
)

#: Module prefix whose ``schedule``/``schedule_workflow`` methods are
#: plan entry points (every registered scheduler's public surface).
SCHEDULER_PREFIX = "repro.schedulers."
SCHEDULER_ENTRY_NAMES = ("schedule", "schedule_workflow")


@dataclass(frozen=True)
class SinkSite:
    """One direct determinism sink inside one function."""

    check: str      # lint check id ("wall-clock", ...)
    message: str    # the sink catalog's message
    path: str
    lineno: int

    @property
    def location(self) -> str:
        return f"{self.path}:{self.lineno}"


def default_roots(graph: CallGraph) -> List[str]:
    """Campaign-entry roots present in this graph, deterministic order."""
    roots = [r for r in DEFAULT_ROOTS if r in graph.functions]
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        if (
            info.module.startswith(SCHEDULER_PREFIX)
            and info.name in SCHEDULER_ENTRY_NAMES
            and info.cls is not None
        ):
            roots.append(qual)
    return roots


def function_sinks(
    graph: CallGraph,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> Dict[str, List[SinkSite]]:
    """Per-function direct-sink summaries, allowlist already applied.

    Matching reuses the lint allowlist exactly: an unsited entry
    suppresses the check anywhere in the file, a sited entry only the
    named site — either way the sink seeds no interprocedural taint.
    """
    summaries: Dict[str, List[SinkSite]] = {}
    for qual, info in graph.functions.items():
        module = graph.modules[info.module]
        sites: List[SinkSite] = []
        for node in graph.function_nodes(qual):
            if not isinstance(node, ast.Call):
                continue
            sink = sink_for_call(node, module.aliases)
            if sink is None:
                continue
            check, message = sink
            lineno = getattr(node, "lineno", info.lineno)
            location = f"{module.path}:{lineno}"
            if allow_match(allow, module.path, check, location, message, used):
                continue
            sites.append(SinkSite(check, message, module.path, lineno))
        if sites:
            summaries[qual] = sites
    return summaries


def propagate_taint(
    graph: CallGraph, sinks: Dict[str, List[SinkSite]]
) -> Dict[str, Set[str]]:
    """Fixed-point taint: function -> the sink check ids it can reach."""
    taint: Dict[str, Set[str]] = {
        qual: {site.check for site in sites} for qual, sites in sinks.items()
    }
    # Worklist over the graph's reverse edges to a fixed point.
    work = list(taint)
    while work:
        fn = work.pop()
        checks = taint.get(fn, set())
        for caller in graph.callers.get(fn, ()):
            have = taint.setdefault(caller, set())
            if not checks <= have:
                have.update(checks)
                work.append(caller)
    return taint


def _chain_text(
    graph: CallGraph,
    root: str,
    sinks: Dict[str, List[SinkSite]],
    check: str,
) -> str:
    """Render ``root -> ... -> sink() at path:line`` for one check id."""
    carriers = {
        qual for qual, sites in sinks.items()
        if any(site.check == check for site in sites)
    }
    chain = graph.call_chain(root, carriers)
    if chain is None:  # taint said reachable; belt-and-braces fallback
        return f"{root} reaches a {check} sink"
    site = next(s for s in sinks[chain[-1]] if s.check == check)
    hops = " -> ".join(q.rsplit(".", 2)[-1] if q.count(".") < 2
                       else ".".join(q.rsplit(".", 2)[-2:]) for q in chain)
    return f"{hops} -> {check} at {site.location}"


def check_flow(
    graph: CallGraph,
    roots: Optional[Iterable[str]] = None,
    allow: Sequence = (),
    used: Optional[Set] = None,
) -> List[Finding]:
    """Interprocedural determinism taint from the campaign-entry roots.

    One ``taint-flow`` ERROR per (root, sink check id) pair; the message
    carries the shortest call chain so the finding is actionable at
    either end (fix the sink, or cut the call path).
    """
    root_list = list(roots) if roots is not None else default_roots(graph)
    sinks = function_sinks(graph, allow=allow, used=used)
    taint = propagate_taint(graph, sinks)
    report = Reporter(LAYER, allow, used)
    for root in root_list:
        info = graph.functions.get(root)
        if info is None:
            continue
        for check in sorted(taint.get(root, ())):
            chain = _chain_text(graph, root, sinks, check)
            report.flag(
                "taint-flow", info.path, info.lineno,
                f"campaign entry point {root} transitively reaches a "
                f"{check} sink: {chain}",
                "remove the sink, route it through an allowlisted shim, "
                "or break the call path",
            )
    return report.findings
