"""The lease protocol: who owns a cell, for how long, in what clock.

A lease is the service's unit of crash-safe work assignment:

* **Token** — ``<worker_id>.<n>`` where ``n`` is the store-wide monotone
  lease counter.  Deterministic (no uuid/entropy), unique for the store's
  lifetime, and strictly ordered: after a reclaim, the *re*-lease carries
  a later token, which is how the store recognizes a zombie's write with
  the old token and discards it.
* **Expiry** — an absolute tick on the store's **logical clock**, not a
  wall-clock deadline.  Every worker poll advances the clock by one, so
  "a lease lives ``ttl`` ticks" means "``ttl`` store polls by anyone" —
  the same schedule of polls always expires leases at the same point,
  regardless of machine speed (and the determinism lint's wall-clock ban
  holds service-wide with no exemptions).
* **Heartbeat** — a live worker pushes its expiry out by a full TTL every
  time a result lands, so batches of any length survive; only a worker
  that *stops* (crash, SIGKILL, wedge) lets the clock walk past it.
* **Reclaim** — a guarded ``leased/running -> queued`` transition on
  expired cells: exactly-once by construction, attempts preserved so a
  worker-killing cell steps toward quarantine instead of cycling.

:class:`Lease` and :class:`LeasedCell` are the value objects the store
hands a worker; the transitions themselves live in
:mod:`repro.service.store` next to the rest of the state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.runner.jobs import SimJob


@dataclass(frozen=True)
class LeasedCell:
    """One cell handed to a worker inside a lease."""

    campaign_id: str
    key: str
    job: SimJob
    label: str
    attempts: int


@dataclass(frozen=True)
class Lease:
    """A batch of cells a worker owns until expiry/completion/release."""

    token: str
    expires_tick: int
    cells: Tuple[LeasedCell, ...]

    def __len__(self) -> int:
        return len(self.cells)


def lease_token(worker_id: str, seq: int) -> str:
    """The deterministic token for the ``seq``-th lease ever granted."""
    return f"{worker_id}.{seq}"
