"""JSON serialization of workflows — a DAX-like interchange format.

Pegasus-style systems exchange abstract workflows as DAX documents; we use
an equivalent JSON schema so workflows can be generated once, stored, and
replayed across experiments::

    {
      "name": "montage-57",
      "files": [{"name": "in_0.fits", "size_mb": 4.2, "initial": true}, ...],
      "tasks": [{"name": "mProject_0", "work": 120.0,
                 "affinity": {"gpu": 12.0},
                 "inputs": ["in_0.fits"], "outputs": ["proj_0.fits"],
                 "category": "mProject", "memory_gb": 2.0}, ...],
      "control_edges": [["a", "b"], ...]
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.platform.devices import DeviceClass
from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile, Task


def workflow_to_dict(workflow: Workflow) -> Dict[str, Any]:
    """Convert a workflow to a JSON-serializable dict."""
    return {
        "name": workflow.name,
        "files": [
            {
                "name": f.name,
                "size_mb": f.size_mb,
                "initial": f.initial,
                **({"location": f.location} if f.location else {}),
            }
            for f in workflow.files.values()
        ],
        "tasks": [
            {
                "name": t.name,
                "work": t.work,
                "affinity": {str(cls): mult for cls, mult in t.affinity.items()},
                "inputs": list(t.inputs),
                "outputs": list(t.outputs),
                "category": t.category,
                "memory_gb": t.memory_gb,
                "priority_hint": t.priority_hint,
            }
            for t in workflow.tasks.values()
        ],
        "control_edges": sorted(list(e) for e in workflow._control_edges),
    }


def workflow_from_dict(payload: Dict[str, Any]) -> Workflow:
    """Rebuild a workflow from :func:`workflow_to_dict` output."""
    try:
        wf = Workflow(payload["name"])
        for fd in payload.get("files", []):
            wf.add_file(
                DataFile(
                    name=fd["name"],
                    size_mb=float(fd["size_mb"]),
                    initial=bool(fd.get("initial", False)),
                    location=fd.get("location"),
                )
            )
        for td in payload.get("tasks", []):
            affinity = {
                DeviceClass(cls): float(mult)
                for cls, mult in td.get("affinity", {}).items()
            }
            wf.add_task(
                Task(
                    name=td["name"],
                    work=float(td["work"]),
                    affinity=affinity,
                    inputs=tuple(td.get("inputs", ())),
                    outputs=tuple(td.get("outputs", ())),
                    category=td.get("category", "generic"),
                    memory_gb=float(td.get("memory_gb", 1.0)),
                    priority_hint=float(td.get("priority_hint", 0.0)),
                )
            )
        for src, dst in payload.get("control_edges", []):
            wf.add_control_edge(src, dst)
    except KeyError as exc:
        raise ValueError(f"workflow document missing field: {exc}") from exc
    return wf


def workflow_to_json(workflow: Workflow, indent: int = 2) -> str:
    """Serialize a workflow to a JSON string."""
    return json.dumps(workflow_to_dict(workflow), indent=indent, sort_keys=True)


def workflow_from_json(text: str) -> Workflow:
    """Parse a workflow from a JSON string."""
    return workflow_from_dict(json.loads(text))
