"""Wire schemas of the campaign service: JSON in, JSON out, versioned.

Everything that crosses the service boundary — an HTTP request body, a
job-store row, a status response — is a JSON document; every request
and response body is schema-tagged.  **No pickle anywhere**: a
submitted cell is the same data description a
:class:`~repro.runner.jobs.SimJob` already is (workflow document,
cluster factory spec, scheduler name/spec, run-config dict), so the
server stores exactly what the worker rebuilds, and rebuilding goes
through the one construction path that makes records bit-identical
across inline, pooled and service execution.

**Each workflow document crosses once.**  Many cells share a few
documents (one DAG under many schedulers, seeds and platforms), so a
``submit/v2`` body lists each distinct document once, in ``workflows``,
and each cell names its document by index::

    {"schema": "repro.service.submit/v2", "name": "...",
     "workflows": [{...}, ...],
     "cells": [{"workflow": 0, "cluster": {...}, "scheduler": "heft",
                "config": {"seed": 1}, "label": "..."}, ...]}

:func:`parse_submission` hands every cell of one document the same
dict, and every cell of equal cluster specs the same spec dict, so the
identity-keyed hashing memos behind
:func:`~repro.runner.hashing.cache_key` hit.  A job-store row holds a
cell in the same shape, naming its document by content fingerprint
instead of index; the store keeps each document once
(:mod:`repro.service.store`).

Validation philosophy: reject early with a message that names the field.
A malformed submission never reaches the store; a malformed store row
(hand-edited database) fails loudly at lease time, not as a worker
crash three layers down.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Union

from repro.runner.hashing import canonical_json
from repro.runner.jobs import SimJob

#: Schema tag of a campaign submission request body.
SUBMIT_SCHEMA = "repro.service.submit/v2"
#: Schema tag of every response envelope the API emits.
RESPONSE_SCHEMA = "repro.service.response/v1"
#: Schema tag of a whole-store JSON dump (the CI artifact).
DUMP_SCHEMA = "repro.service.dump/v1"


class WireError(ValueError):
    """A request or stored document that violates the wire schema."""


def _require(payload: Dict[str, Any], field: str, types, where: str):
    """The field's value, or a :class:`WireError` naming what is wrong."""
    if field not in payload:
        raise WireError(f"{where}: missing required field {field!r}")
    value = payload[field]
    if not isinstance(value, types):
        names = (
            types.__name__ if isinstance(types, type)
            else "/".join(t.__name__ for t in types)
        )
        raise WireError(
            f"{where}: field {field!r} must be {names}, "
            f"got {type(value).__name__}"
        )
    return value


def job_to_wire(job: SimJob, workflow: Union[int, str]) -> Dict[str, Any]:
    """One cell, naming its document by ``workflow``: an index into a
    submission's ``workflows``, or the document's fingerprint in a
    store row."""
    return {
        "workflow": workflow,
        "cluster": job.cluster,
        "scheduler": job.scheduler,
        "config": job.config,
        "label": job.label,
    }


def job_from_wire(
    payload: Any, workflow: Any, where: str = "cell"
) -> SimJob:
    """The :class:`SimJob` a cell describes; ``workflow`` is the
    document its ``workflow`` field names."""
    if not isinstance(payload, dict):
        raise WireError(f"{where}: must be a JSON object")
    if not isinstance(workflow, dict):
        raise WireError(f"{where}: its workflow document must be an object")
    cluster = _require(payload, "cluster", dict, where)
    scheduler = _require(payload, "scheduler", (str, dict), where)
    config = payload.get("config", {})
    if not isinstance(config, dict):
        raise WireError(f"{where}: field 'config' must be an object")
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise WireError(f"{where}: field 'label' must be a string")
    return SimJob(
        workflow=workflow, cluster=cluster, scheduler=scheduler,
        config=config, label=label,
    )


def submission_to_wire(name: str, jobs: List[SimJob]) -> Dict[str, Any]:
    """A submission request body for the given cells (client helper).

    Cells that share a document object share its entry in
    ``workflows``: O(cells), no hashing on the client.
    """
    index: Dict[int, int] = {}
    workflows: List[Dict[str, Any]] = []
    cells = []
    for job in jobs:
        i = index.get(id(job.workflow))
        if i is None:
            i = index[id(job.workflow)] = len(workflows)
            workflows.append(job.workflow)
        cells.append(job_to_wire(job, i))
    return {
        "schema": SUBMIT_SCHEMA,
        "name": name,
        "workflows": workflows,
        "cells": cells,
    }


def parse_submission(payload: Any) -> Tuple[str, List[SimJob]]:
    """Validate a submission body; ``(campaign name, cells)`` or raise.

    Every cell is rebuilt through :func:`job_from_wire` here, at the
    boundary, so a submission that parses is a submission whose cells a
    worker can execute.  Cells naming one document share its dict, and
    cells of equal cluster specs share one spec dict.
    """
    if not isinstance(payload, dict):
        raise WireError("submission: body must be a JSON object")
    schema = payload.get("schema")
    if schema != SUBMIT_SCHEMA:
        raise WireError(
            f"submission: expected schema {SUBMIT_SCHEMA!r}, got {schema!r}"
        )
    name = _require(payload, "name", str, "submission")
    if not name:
        raise WireError("submission: campaign name must be non-empty")
    workflows = _require(payload, "workflows", list, "submission")
    for i, doc in enumerate(workflows):
        if not isinstance(doc, dict):
            raise WireError(f"workflows[{i}]: must be a JSON object")
    cells = _require(payload, "cells", list, "submission")
    if not cells:
        raise WireError("submission: at least one cell is required")
    jobs = []
    clusters: Dict[str, Any] = {}
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            raise WireError(f"{where}: must be a JSON object")
        cluster = _require(cell, "cluster", dict, where)
        cell["cluster"] = clusters.setdefault(canonical_json(cluster), cluster)
        ref = _require(cell, "workflow", int, where)
        if isinstance(ref, bool) or not 0 <= ref < len(workflows):
            raise WireError(
                f"{where}: field 'workflow' must be an index into the "
                f"{len(workflows)} 'workflows', got {ref!r}"
            )
        jobs.append(job_from_wire(cell, workflows[ref], where))
    return name, jobs


def response(ok: bool, **fields: Any) -> Dict[str, Any]:
    """The uniform response envelope every endpoint returns."""
    body: Dict[str, Any] = {"schema": RESPONSE_SCHEMA, "ok": ok}
    body.update(fields)
    return body
