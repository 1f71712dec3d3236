"""Workflow merging for ensemble execution.

Discovery campaigns rarely run one workflow at a time: an *ensemble* of
related workflows (parameter sweeps, multiple analyses of one dataset)
shares the platform.  :func:`merge_workflows` builds a single super-DAG
from several member workflows by namespacing every task and file with its
member id — the merged workflow runs on the unmodified executor and
scheduler stack, which is exactly how space-shared ensemble scheduling
works in Pegasus-class systems.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Tuple

from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile, Task

#: Separator between member id and original name.
SEP = "::"


def member_prefix(member_id: str, name: str) -> str:
    """Namespaced name of one member's task/file."""
    return f"{member_id}{SEP}{name}"


def split_member(name: str) -> Tuple[str, str]:
    """(member id, original name) of a namespaced name."""
    member, _sep, rest = name.partition(SEP)
    if not rest:
        raise ValueError(f"{name!r} carries no member namespace")
    return member, rest


def merge_workflows(
    members: Dict[str, Workflow],
    name: str = "ensemble",
    priorities: Dict[str, float] = None,
) -> Workflow:
    """Merge member workflows into one namespaced super-DAG.

    Args:
        members: member id -> workflow.  Ids must not contain ``::``.
        name: Name of the merged workflow.
        priorities: Optional member id -> priority; copied onto every
            member task's ``priority_hint`` so priority-aware policies can
            honour it.
    """
    if not members:
        raise ValueError("cannot merge an empty ensemble")
    priorities = priorities or {}
    merged = Workflow(name)
    for member_id, wf in members.items():
        if SEP in member_id:
            raise ValueError(f"member id {member_id!r} contains {SEP!r}")
        prio = priorities.get(member_id, 0.0)
        for f in wf.files.values():
            merged.add_file(replace(f, name=member_prefix(member_id, f.name)))
        for t in wf.tasks.values():
            merged.add_task(Task(
                name=member_prefix(member_id, t.name),
                work=t.work,
                affinity=dict(t.affinity),
                inputs=tuple(member_prefix(member_id, x) for x in t.inputs),
                outputs=tuple(member_prefix(member_id, x) for x in t.outputs),
                category=t.category,
                memory_gb=t.memory_gb,
                priority_hint=prio if prio else t.priority_hint,
            ))
        for src, dst in wf._control_edges:
            merged.add_control_edge(
                member_prefix(member_id, src), member_prefix(member_id, dst)
            )
    return merged


def member_tasks(merged: Workflow, member_id: str) -> List[str]:
    """All task names of one member inside a merged workflow."""
    prefix = member_id + SEP
    return [n for n in merged.tasks if n.startswith(prefix)]
