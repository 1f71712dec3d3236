"""Tests for the scientific workflow generators."""

import pytest

from repro.platform.devices import DeviceClass
from repro.staticcheck.workflow_checks import validate_workflow
from repro.workflows.generators import (
    ALL_GENERATORS,
    SCIENTIFIC_SUITES,
    blast,
    by_name,
    cybershake,
    epigenomics,
    layered_dag,
    ligo_inspiral,
    ml_pipeline,
    montage,
    random_dag,
    sipht,
)


class TestGeneric:
    @pytest.mark.parametrize("name", sorted(ALL_GENERATORS))
    def test_generates_valid_dag(self, name):
        wf = by_name(name, seed=3)
        validate_workflow(wf)
        assert wf.is_acyclic()
        assert wf.n_tasks > 0

    @pytest.mark.parametrize("name", sorted(ALL_GENERATORS))
    def test_deterministic_given_seed(self, name):
        a = by_name(name, seed=9)
        b = by_name(name, seed=9)
        assert set(a.tasks) == set(b.tasks)
        assert all(a.tasks[t].work == b.tasks[t].work for t in a.tasks)
        assert all(a.files[f].size_mb == b.files[f].size_mb for f in a.files)

    @pytest.mark.parametrize("name", sorted(ALL_GENERATORS))
    def test_different_seed_different_draws(self, name):
        a = by_name(name, seed=1)
        b = by_name(name, seed=2)
        if set(a.tasks) == set(b.tasks):
            assert any(a.tasks[t].work != b.tasks[t].work for t in a.tasks)

    @pytest.mark.parametrize("name", sorted(SCIENTIFIC_SUITES))
    @pytest.mark.parametrize("size", [20, 50, 120])
    def test_size_parameter_roughly_honored(self, name, size):
        wf = SCIENTIFIC_SUITES[name](size=size, seed=0)
        assert 0.5 * size <= wf.n_tasks <= 2.0 * size

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            by_name("nonesuch")


class TestMontage:
    def test_stage_structure(self):
        wf = montage(n_images=6, seed=0)
        cats = wf.categories()
        assert cats["mProject"] == 6
        assert cats["mBackground"] == 6
        assert cats["mConcatFit"] == 1
        assert cats["mAdd"] == 1
        # mDiffFit over overlapping pairs with degree 2: 2n-3 pairs
        assert cats["mDiffFit"] == 2 * 6 - 3

    def test_projection_is_gpu_accelerable(self):
        wf = montage(n_images=4, seed=0)
        t = wf.tasks["mProject_0"]
        assert t.affinity_for(DeviceClass.GPU) > 1.0

    def test_tail_is_sequential(self):
        wf = montage(n_images=4, seed=0)
        assert wf.successors("mAdd") == ["mShrink"]
        assert wf.successors("mShrink") == ["mJPEG"]
        assert wf.exit_tasks() == ["mJPEG"]

    def test_too_few_images_rejected(self):
        with pytest.raises(ValueError):
            montage(n_images=1)


class TestCybershake:
    def test_structure(self):
        wf = cybershake(n_variations=5, seed=0)
        cats = wf.categories()
        assert cats["ExtractSGT"] == 5
        assert cats["SeismogramSynthesis"] == 5
        assert cats["PeakValCalcOkaya"] == 5
        assert cats["ZipSeis"] == 1
        assert cats["ZipPSA"] == 1

    def test_synthesis_dominates_and_accelerates(self):
        wf = cybershake(n_variations=3, seed=0)
        synth = wf.tasks["SeismogramSynthesis_0"]
        extract = wf.tasks["ExtractSGT_0"]
        assert synth.work > extract.work
        assert synth.affinity_for(DeviceClass.GPU) > 10

    def test_sgt_files_are_large_initial(self):
        wf = cybershake(n_variations=3, seed=0)
        assert wf.files["sgt_x.bin"].initial
        assert wf.files["sgt_x.bin"].size_mb > 500


class TestEpigenomics:
    def test_chain_depth(self):
        wf = epigenomics(n_lanes=1, chunks_per_lane=2, seed=0)
        # split -> filter -> sol2sanger -> fastq2bfq -> map -> merge ->
        # index -> pileup = 8 levels
        assert len(wf.levels()) == 8

    def test_lane_isolation_until_index(self):
        wf = epigenomics(n_lanes=2, chunks_per_lane=2, seed=0)
        assert "maqIndex" in wf.successors("mapMerge_l0")
        assert "maqIndex" in wf.successors("mapMerge_l1")

    def test_map_is_heavy_and_accelerable(self):
        wf = epigenomics(n_lanes=1, chunks_per_lane=2, seed=0)
        m = wf.tasks["map_l0_0"]
        assert m.affinity_for(DeviceClass.FPGA) > 1
        assert m.work > wf.tasks["sol2sanger_l0_0"].work

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            epigenomics(n_lanes=0, chunks_per_lane=1)


class TestLigo:
    def test_two_wave_structure(self):
        wf = ligo_inspiral(n_segments=6, group_size=3, seed=0)
        cats = wf.categories()
        assert cats["TmpltBank"] == 6
        assert cats["Inspiral"] == 6
        assert cats["Thinca"] == 2
        assert cats["Inspiral2"] == 6
        assert cats["Thinca2"] == 2

    def test_second_wave_depends_on_first(self):
        wf = ligo_inspiral(n_segments=4, group_size=2, seed=0)
        assert "Thinca_0" in wf.predecessors("TrigBank_0")

    def test_uneven_group_sizes(self):
        wf = ligo_inspiral(n_segments=5, group_size=3, seed=0)
        assert wf.categories()["Thinca"] == 2  # groups of 3 and 2


class TestSipht:
    def test_structure(self):
        wf = sipht(n_patser=8, seed=0)
        cats = wf.categories()
        assert cats["Patser"] == 8
        assert cats["SRNA"] == 1
        assert cats["SRNAAnnotate"] == 1

    def test_findterm_dominates(self):
        wf = sipht(n_patser=5, seed=0)
        findterm = wf.tasks["Findterm"].work
        assert findterm > wf.tasks["Transterm"].work
        assert findterm > wf.tasks["RNAMotif"].work

    def test_blast_prefers_fpga(self):
        wf = sipht(n_patser=5, seed=0)
        b = wf.tasks["Blast"]
        assert b.affinity_for(DeviceClass.FPGA) > b.affinity_for(DeviceClass.GPU)


class TestSoykb:
    def test_structure(self):
        from repro.workflows.generators import soykb

        wf = soykb(n_samples=4, seed=0)
        cats = wf.categories()
        assert cats["alignment"] == 4
        assert cats["haplotypeCaller"] == 4
        assert cats["combineGVCF"] == 1
        assert wf.exit_tasks() == ["filterVariants"]

    def test_chain_depth(self):
        from repro.workflows.generators import soykb

        # align -> sort -> dedup -> realign -> call -> combine ->
        # genotype -> filter = 8 levels
        wf = soykb(n_samples=2, seed=0)
        assert len(wf.levels()) == 8

    def test_alignment_accelerable(self):
        from repro.platform.devices import DeviceClass
        from repro.workflows.generators import soykb

        wf = soykb(n_samples=2, seed=0)
        t = wf.tasks["alignment_0"]
        assert t.affinity_for(DeviceClass.FPGA) > t.affinity_for(
            DeviceClass.GPU
        ) > 1.0

    def test_runs_end_to_end(self):
        from repro import run_workflow
        from repro.platform import presets
        from repro.workflows.generators import soykb

        result = run_workflow(
            soykb(n_samples=3, seed=1),
            presets.hybrid_cluster(nodes=2, cores_per_node=2),
            seed=1,
        )
        assert result.success


class TestSynthetic:
    def test_blast_scatter_gather(self):
        wf = blast(n_chunks=10, seed=0)
        assert wf.categories()["blastall"] == 10
        assert len(wf.levels()) == 3

    def test_ml_pipeline_structure(self):
        wf = ml_pipeline(n_shards=4, n_folds=3, seed=0)
        cats = wf.categories()
        assert cats["train"] == 4  # 3 folds + final
        assert cats["featurize"] == 4
        assert wf.exit_tasks() == ["evaluate_report"]

    def test_random_dag_ccr_targeting(self):
        for target in (0.2, 1.0, 5.0):
            wf = random_dag(n_tasks=300, ccr=target, seed=1)
            assert wf.ccr() == pytest.approx(target, rel=0.5)

    def test_random_dag_zero_ccr(self):
        wf = random_dag(n_tasks=50, ccr=0.0, seed=0)
        assert wf.total_edge_data_mb() == 0.0

    def test_random_dag_task_count_exact(self):
        assert random_dag(n_tasks=77, seed=0).n_tasks == 77

    def test_random_dag_invalid_params(self):
        with pytest.raises(ValueError):
            random_dag(n_tasks=0)
        with pytest.raises(ValueError):
            random_dag(n_tasks=5, ccr=-1)

    def test_layered_shape(self):
        wf = layered_dag(layers=4, width=5, seed=0)
        assert wf.n_tasks == 20
        assert len(wf.levels()) == 4
        assert all(len(level) == 5 for level in wf.levels())

    def test_layered_full_fan_in(self):
        wf = layered_dag(layers=3, width=3, fan_in=None, seed=0)
        assert len(wf.predecessors("l1_t0")) == 3

    def test_layered_sparse_fan_in(self):
        wf = layered_dag(layers=3, width=5, fan_in=2, seed=0)
        assert all(
            len(wf.predecessors(f"l1_t{i}")) == 2 for i in range(5)
        )

    def test_layered_invalid(self):
        with pytest.raises(ValueError):
            layered_dag(layers=0, width=5)
