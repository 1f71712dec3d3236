"""Seeded input generation: every workflow, cell seed and campaign order.

All randomness the benchmark feeds the program comes from here and is a
pure function of ``--seed`` (and of the batch or campaign index), so
the same seed always yields the same cells.  The program only ever
receives the generated :class:`~repro.runner.jobs.SimJob` descriptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

#: The seed a plain run uses, and the one kept back for confirming a
#: claimed gain on inputs nobody tuned against.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Sizes:
    """Workload sizing; ``tiny`` is the smoke-test shape."""

    suite_tasks: int = 60
    service_tasks: int = 10
    service_cells: int = 8
    backlog_cells: int = 800

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(
            suite_tasks=12, service_tasks=6, service_cells=4, backlog_cells=8,
        )


def _rng(*parts) -> random.Random:
    """A private generator seeded by a string of the parts (stable)."""
    return random.Random(":".join(str(p) for p in parts))


def _cluster(nodes: int, cores: int, gpus: int):
    from repro.experiments.common import preset_spec

    return preset_spec("hybrid", nodes=nodes, cores_per_node=cores, gpus_per_node=gpus)


# ---------------------------------------------------------------------- #
# sweep: same-shape batches of the paper's tables                        #
# ---------------------------------------------------------------------- #

class SweepInputs:
    """Per batch: five fresh suite workflows, 11 cells each.

    Every batch draws its own workflows, so a run averages over a few
    hundred of them and the batch cost does not depend on which seed
    the run was given; within a batch the 11 cells of a suite share one
    document, as the experiment grids do.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.cluster = _cluster(4, 4, 1)

    def batch(self, index: int) -> List:
        """Batch ``index``: per suite, 8 static schedulers + 3 mode cells."""
        from repro.experiments.common import make_job, suite_workflows
        from repro.faults.models import FaultModel
        from repro.faults.recovery import RecoveryPolicy
        from repro.runner.campaign import GOLDEN_SCHEDULERS
        from repro.runner.specs import factory_spec
        from repro.workflows.serialize import workflow_to_dict

        rng = _rng("sweep", self.seed, index)
        workflows = suite_workflows(size=self.sizes.suite_tasks, seed=rng.randrange(1 << 30))
        faults = factory_spec(FaultModel, task_fault_rate=0.05)
        retry = factory_spec(RecoveryPolicy.retry, 25)
        jobs = []
        for suite, workflow in workflows.items():
            doc = workflow_to_dict(workflow)

            def cell(scheduler, tag, **config):
                jobs.append(make_job(
                    doc, self.cluster, scheduler=scheduler,
                    seed=rng.randrange(1 << 30), noise_cv=0.1,
                    label=f"sweep:{index}:{suite}:{tag}", **config,
                ))

            for scheduler in GOLDEN_SCHEDULERS:
                cell(scheduler, scheduler)
            cell("hdws", "adaptive", mode="adaptive", estimate_error_cv=0.2)
            cell("hdws", "dynamic", mode="dynamic")
            cell("heft", "faults", fault_model=faults, recovery=retry)
        return jobs

    @staticmethod
    def warmup_cells() -> List:
        """Two tiny cells that make a fresh pool answer (never re-used)."""
        from repro.experiments.common import make_job
        from repro.workflows.generators import random_dag

        cluster = _cluster(1, 2, 0)
        return [
            make_job(random_dag(size=4, seed=k), cluster, scheduler="heft",
                     seed=k, label=f"warmup:{k}")
            for k in range(2)
        ]


# ---------------------------------------------------------------------- #
# service: small campaigns arriving on a fixed schedule                  #
# ---------------------------------------------------------------------- #

class ServiceInputs:
    """Open-loop campaigns; every 4th resubmits an earlier one's cells."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        from repro.experiments.common import suite_workflows
        from repro.workflows.serialize import workflow_to_dict

        self.seed = seed
        self.sizes = sizes
        # Three instances of each suite: enough documents that a run's
        # cell cost does not hinge on the seed's draw, few enough (15)
        # for the worker's 16-entry workflow memo to keep them all.
        rng = _rng("service-docs", seed)
        self.docs = [
            workflow_to_dict(wf)
            for _ in range(3)
            for wf in suite_workflows(size=sizes.service_tasks,
                                      seed=rng.randrange(1 << 30)).values()
        ]
        self.cluster = _cluster(2, 2, 1)
        self._campaigns: List[List] = []

    def _fresh(self, tag: str, count: int, rng: random.Random) -> List:
        from repro.experiments.common import make_job
        from repro.runner.campaign import GOLDEN_SCHEDULERS

        return [
            make_job(
                rng.choice(self.docs), self.cluster,
                scheduler=rng.choice(GOLDEN_SCHEDULERS),
                seed=rng.randrange(1 << 30), noise_cv=0.1,
                label=f"{tag}:{i}",
            )
            for i in range(count)
        ]

    def campaign(self, index: int) -> List:
        """Cells of open-loop campaign ``index`` (generated in order)."""
        while len(self._campaigns) <= index:
            i = len(self._campaigns)
            rng = _rng("service", self.seed, i)
            if i % 4 == 3:
                # Far enough back that the original has finished, so its
                # cells resolve from the shared cache.
                self._campaigns.append(self._campaigns[rng.randrange(i - 2)])
            else:
                self._campaigns.append(
                    self._fresh(f"service:{i}", self.sizes.service_cells, rng)
                )
        return self._campaigns[index]

    def is_resubmission(self, index: int) -> bool:
        return index % 4 == 3

    def warmup(self) -> List:
        return self._fresh("warmup", self.sizes.service_cells,
                           _rng("service-warmup", self.seed))

    def backlog(self, index: int) -> List:
        return self._fresh(f"backlog-{index}", self.sizes.backlog_cells,
                           _rng("service-backlog", self.seed, index))
