"""The campaign service control plane (ROADMAP item 2).

A Balsam-shaped split of the campaign runner into three processes that
meet through two shared, crash-safe substrates:

* :mod:`repro.service.store` — the sqlite job store: campaigns, cells,
  the ``queued → leased → running → terminal`` state machine, and the
  logical-tick lease clock.
* :mod:`repro.service.lease` — the lease protocol's value objects and
  invariants (deterministic tokens, tick expiry, reclaim-exactly-once).
* :mod:`repro.service.worker` — the detachable worker daemon: lease a
  batch, execute it through the inline campaign path, complete
  token-guarded.
* :mod:`repro.service.api` — the stdlib-``http.server`` JSON API:
  submit, query, metrics, drain/stop.
* :mod:`repro.service.wire` — the versioned JSON schemas every boundary
  speaks (no pickle crosses the service).

Results live in the shared content-addressed
:class:`~repro.runner.cache.ResultCache`, which is what makes service
execution byte-identical to ``repro-flow campaign`` runs of the same
cells — the service adds ownership and observability, never a second
execution semantics.
"""

from repro.service.lease import Lease, LeasedCell
from repro.service.store import (
    ALLOWED_TRANSITIONS,
    CELL_STATES,
    IllegalTransition,
    JobStore,
    StoreError,
    TERMINAL_STATES,
    can_transition,
)
from repro.service.wire import (
    DUMP_SCHEMA,
    RESPONSE_SCHEMA,
    SUBMIT_SCHEMA,
    WireError,
)

__all__ = [
    "ALLOWED_TRANSITIONS",
    "CELL_STATES",
    "DUMP_SCHEMA",
    "IllegalTransition",
    "JobStore",
    "Lease",
    "LeasedCell",
    "RESPONSE_SCHEMA",
    "StoreError",
    "SUBMIT_SCHEMA",
    "TERMINAL_STATES",
    "WireError",
    "can_transition",
]
