"""Differential harness: vectorized scheduler kernels vs pure references.

Every scheduler in the zoo is run twice on the same (workflow, cluster)
cell — once through the vectorized numpy kernels (the production path) and
once under :func:`repro.schedulers._reference.reference_mode`, which routes
every rank/OCT/EFT computation through the retained pure-Python reference
implementations.  The two schedules must agree *exactly*: same device per
task and bit-identical start/finish floats.  Any drift between a kernel
and its reference — a changed reduction order, a fused multiply, a wrong
epsilon — surfaces here as a named divergence instead of as unexplained
golden-makespan churn.

The grid is randomized over workflow generators, generator seeds and
cluster presets (>= 50 cells).  A mutation-style test perturbs one rank
value in the vectorized path under monkeypatch and asserts the harness
reports the divergence, pinning down that the comparison actually bites.
"""

import networkx as nx
import pytest

import repro.core  # noqa: F401  (registers HDWS in the scheduler registry)
from repro.platform import presets
from repro.schedulers import REGISTRY, _reference
from repro.schedulers.base import SchedulingContext
from repro.workflows.generators import (
    cybershake,
    epigenomics,
    ligo_inspiral,
    montage,
    random_dag,
)

pytestmark = pytest.mark.differential


# --------------------------------------------------------------------- #
# harness                                                               #
# --------------------------------------------------------------------- #


def _assignments(schedule):
    """task -> (device, start, finish); exact floats, no rounding."""
    return {
        name: (a.device, a.start, a.finish)
        for name, a in schedule.assignments.items()
    }


def divergences(fast, ref):
    """All (task, fast_entry, ref_entry) triples that differ exactly."""
    out = []
    for name in sorted(set(fast) | set(ref)):
        if fast.get(name) != ref.get(name):
            out.append((name, fast.get(name), ref.get(name)))
    return out


def run_cell(scheduler_name, wf_factory, cluster_factory):
    """Schedule one cell in both modes; return the divergence list.

    Context and platform are rebuilt per mode so no cached vectors leak
    from the fast run into the reference run.
    """
    fast_schedule = REGISTRY[scheduler_name]().schedule(
        SchedulingContext(wf_factory(), cluster_factory())
    )
    with _reference.reference_mode():
        ref_schedule = REGISTRY[scheduler_name]().schedule(
            SchedulingContext(wf_factory(), cluster_factory())
        )
    return divergences(_assignments(fast_schedule), _assignments(ref_schedule))


# --------------------------------------------------------------------- #
# the randomized grid                                                   #
# --------------------------------------------------------------------- #

#: Schedulers that exercise the vectorized rank/OCT/EFT kernels directly.
KERNEL_SCHEDULERS = [
    "heft", "peft", "cpop", "minmin", "maxmin", "mct", "met", "olb", "hdws",
]

#: (label, workflow factory, cluster factory) — the randomized axes.
CELLS = [
    (
        f"random-ccr{ccr}-s{seed}",
        lambda ccr=ccr, seed=seed: random_dag(n_tasks=24, ccr=ccr, seed=seed),
        cluster,
    )
    for (ccr, seed), cluster in zip(
        [(0.2, 1), (1.0, 2), (5.0, 3)],
        [
            lambda: presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1),
            lambda: presets.unrelated_cluster(nodes=3),
            lambda: presets.edge_cluster(devices=4),
        ],
    )
] + [
    (
        "montage-25",
        lambda: montage(size=25, seed=7),
        lambda: presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1),
    ),
    (
        "epigenomics-24",
        lambda: epigenomics(size=24, seed=11),
        lambda: presets.unrelated_cluster(nodes=2),
    ),
    (
        "cybershake-25",
        lambda: cybershake(size=25, seed=13),
        lambda: presets.hybrid_cluster(nodes=3, cores_per_node=2, gpus_per_node=1),
    ),
    (
        "ligo-24",
        lambda: ligo_inspiral(size=24, seed=17),
        lambda: presets.edge_cluster(devices=6),
    ),
]


@pytest.mark.parametrize("scheduler_name", KERNEL_SCHEDULERS)
@pytest.mark.parametrize("label,wf_factory,cluster_factory", CELLS,
                         ids=[c[0] for c in CELLS])
def test_vectorized_matches_reference(
    scheduler_name, label, wf_factory, cluster_factory
):
    divs = run_cell(scheduler_name, wf_factory, cluster_factory)
    assert not divs, (
        f"{scheduler_name} on {label}: {len(divs)} divergence(s), "
        f"first: {divs[0]}"
    )


#: Schedulers that only consume the kernels indirectly (deterministic
#: defaults) — one smoke cell each keeps the whole registry honest.
INDIRECT_SCHEDULERS = [
    "levelwise", "lookahead-heft", "energy-heft", "roundrobin", "random",
]


@pytest.mark.parametrize("scheduler_name", INDIRECT_SCHEDULERS)
def test_registry_schedulers_match_reference(scheduler_name):
    divs = run_cell(
        scheduler_name,
        lambda: random_dag(n_tasks=18, ccr=1.0, seed=23),
        lambda: presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1),
    )
    assert not divs, f"{scheduler_name}: first divergence {divs[0]}"


def test_grid_has_at_least_50_cells():
    """The acceptance floor: the randomized grid covers >= 50 cells."""
    n = len(KERNEL_SCHEDULERS) * len(CELLS) + len(INDIRECT_SCHEDULERS)
    assert n >= 50


# --------------------------------------------------------------------- #
# mutation: the harness must detect an injected kernel bug              #
# --------------------------------------------------------------------- #


def test_mutated_rank_kernel_is_detected(monkeypatch):
    """Perturbing one vectorized rank value must surface as a divergence.

    The perturbation swaps the rank values of two *incomparable* tasks
    (no path between them), so the scheduling order stays topologically
    valid — the run cannot crash, it can only produce a different (and
    therefore detectably divergent) schedule.
    """
    from repro.schedulers import base

    original = base._vec_upward_ranks

    def perturbed(context, use_best=False):
        ranks = original(context, use_best)
        if _reference.reference_active():  # defensive; reference never routes here
            return ranks
        g = context.workflow.graph()
        order = sorted(ranks, key=lambda n: (-ranks[n], n))
        for i in range(len(order) - 1):
            u, v = order[i], order[i + 1]
            if (
                ranks[u] != ranks[v]
                and v not in nx.descendants(g, u)
                and u not in nx.descendants(g, v)
            ):
                ranks[u], ranks[v] = ranks[v], ranks[u]
                return ranks
        raise AssertionError("no incomparable adjacent pair to perturb")

    monkeypatch.setattr(base, "_vec_upward_ranks", perturbed)
    # seed=5 is verified to have a rank-adjacent incomparable pair whose
    # order actually matters for the final placement (some swaps are
    # harmless: the two tasks end up with identical placements either way).
    divs = run_cell(
        "heft",
        lambda: random_dag(n_tasks=24, ccr=1.0, seed=5),
        lambda: presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1),
    )
    assert divs, "harness failed to report an injected rank perturbation"


def test_reference_mode_is_reentrant_and_restores():
    assert not _reference.reference_active()
    with _reference.reference_mode():
        assert _reference.reference_active()
        with _reference.reference_mode():
            assert _reference.reference_active()
        assert _reference.reference_active()
    assert not _reference.reference_active()


def test_reference_mode_bypasses_context_tables(monkeypatch):
    """Under reference mode a context hands out the reference kernels' tables.

    The context fills its OCT and upward ranks once with the vectorized
    kernels; reference mode must neither read nor fill that memo, or the
    harness would compare the fast tables with themselves.
    """
    from repro.schedulers.peft import optimistic_cost_table

    ctx = SchedulingContext(
        montage(size=12, seed=3),
        presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1),
    )
    fast_oct = optimistic_cost_table(ctx)
    fast_ranks = {b: ctx.upward_ranks(b) for b in (False, True)}
    with _reference.reference_mode():
        ref_oct = optimistic_cost_table(ctx)
        ref_ranks = {b: ctx.upward_ranks(b) for b in (False, True)}
        assert ref_oct is not fast_oct and ref_oct == fast_oct
        for b in (False, True):
            assert ref_ranks[b] is not fast_ranks[b]
            assert ref_ranks[b] == fast_ranks[b]
        monkeypatch.setattr(_reference, "optimistic_cost_table", lambda c: "oct")
        monkeypatch.setattr(_reference, "upward_ranks", lambda c, b=False: b)
        assert optimistic_cost_table(ctx) == "oct"
        assert ctx.upward_ranks(True) is True
    assert optimistic_cost_table(ctx) is fast_oct
    assert ctx.upward_ranks(True) is fast_ranks[True]
