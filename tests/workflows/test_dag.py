"""Tests for the workflow DAG model and generators."""

import pytest

from repro.units import GB, MB
from repro.workflows import (CycleError, FileSpec, Task, Workflow,
                             achieved_parallelism, blast, dd_bag,
                             ideal_parallelism_profile, montage,
                             stage_statistics)


def diamond():
    return Workflow("diamond", [
        Task(id="a", stage="s1", compute_seconds=1,
             outputs=(FileSpec("/x", 10),)),
        Task(id="b", stage="s2", compute_seconds=2,
             inputs=(FileSpec("/x", 10),), outputs=(FileSpec("/y", 10),)),
        Task(id="c", stage="s2", compute_seconds=3,
             inputs=(FileSpec("/x", 10),), outputs=(FileSpec("/z", 10),)),
        Task(id="d", stage="s3", compute_seconds=1,
             inputs=(FileSpec("/y", 10), FileSpec("/z", 10))),
    ])


class TestWorkflow:
    def test_file_dependencies_resolved(self):
        wf = diamond()
        assert wf.dependencies("a") == frozenset()
        assert wf.dependencies("b") == {"a"}
        assert wf.dependencies("d") == {"b", "c"}

    def test_topological_order_valid(self):
        wf = diamond()
        order = wf.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for tid in wf.tasks:
            for dep in wf.dependencies(tid):
                assert pos[dep] < pos[tid]

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            Workflow("loop", [
                Task(id="a", stage="s", inputs=(FileSpec("/b", 1),),
                     outputs=(FileSpec("/a", 1),)),
                Task(id="b", stage="s", inputs=(FileSpec("/a", 1),),
                     outputs=(FileSpec("/b", 1),)),
            ])

    def test_duplicate_task_rejected(self):
        with pytest.raises(ValueError):
            Workflow("dup", [Task(id="a", stage="s"),
                             Task(id="a", stage="s")])

    def test_duplicate_producer_rejected(self):
        with pytest.raises(ValueError):
            Workflow("dup", [
                Task(id="a", stage="s", outputs=(FileSpec("/x", 1),)),
                Task(id="b", stage="s", outputs=(FileSpec("/x", 1),)),
            ])

    def test_unknown_extra_dep_rejected(self):
        with pytest.raises(ValueError):
            Workflow("bad", [Task(id="a", stage="s", extra_deps=("ghost",))])

    def test_external_inputs(self):
        wf = diamond()
        assert wf.external_inputs() == []
        wf2 = Workflow("ext", [
            Task(id="a", stage="s", inputs=(FileSpec("/staged", 5),))])
        assert wf2.external_inputs() == ["/staged"]

    def test_consumers_and_producer(self):
        wf = diamond()
        assert wf.producer_of("/x") == "a"
        assert sorted(wf.consumers_of("/x")) == ["b", "c"]
        assert wf.producer_of("/missing") is None
        twice = Workflow("twice", [
            Task(id="a", stage="s", inputs=(FileSpec("/x", 1),) * 2)])
        assert twice.consumers_of("/x") == ["a"]

    def test_consumer_index_matches_full_scan(self):
        """The index built in __init__ answers exactly what scanning every
        task's inputs answers, in task order, for every generator."""
        from repro.workflows import generators
        small = {"dd_bag": dict(n_tasks=16), "montage": dict(width=32),
                 "blast": dict(n_searches=8)}
        gens = {name for name in generators.__all__
                if callable(getattr(generators, name))}
        assert gens == small.keys()
        for name, kwargs in small.items():
            wf = getattr(generators, name)(**kwargs)
            paths = {f.path for t in wf.tasks.values()
                     for f in t.inputs + t.outputs} | {"/missing"}
            for path in paths:
                scan = [t.id for t in wf.tasks.values()
                        if any(f.path == path for f in t.inputs)]
                assert wf.consumers_of(path) == scan, (name, path)

    def test_critical_path(self):
        wf = diamond()
        assert wf.critical_path_seconds() == pytest.approx(5.0)  # a,c,d

    def test_stages_in_order(self):
        assert diamond().stages() == ["s1", "s2", "s3"]

    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task(id="t", stage="s", compute_seconds=-1)
        with pytest.raises(ValueError):
            Task(id="t", stage="s", cores=0)
        with pytest.raises(ValueError):
            FileSpec("/x", nbytes=-1)
        with pytest.raises(ValueError):
            FileSpec("/x", nbytes=1, n_files=0)


class TestGenerators:
    def test_dd_bag_shape(self):
        wf = dd_bag(n_tasks=16, file_size=128 * MB)
        assert len(wf) == 16
        assert wf.total_output_bytes == 16 * 128 * MB
        assert all(not wf.dependencies(t) for t in wf.tasks)

    def test_dd_bag_paper_default_totals_256gb(self):
        wf = dd_bag()
        assert len(wf) == 2048
        assert wf.total_output_bytes == pytest.approx(256 * GB)

    def test_montage_structure(self):
        wf = montage(width=8)
        stages = wf.stages()
        assert stages == ["mProjectPP", "mDiffFit", "mConcatFit", "mBgModel",
                          "mBackground", "mImgtbl", "mAdd", "mShrink",
                          "mJPEG"]
        # The tail is sequential: single-task stages.
        for s in ("mConcatFit", "mBgModel", "mImgtbl", "mShrink", "mJPEG"):
            assert len(wf.stage_tasks(s)) == 1
        # mBgModel must wait for every diff (through mConcatFit).
        order = wf.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        assert pos["mBgModel"] > pos["mConcatFit"]
        assert all(pos["mConcatFit"] > pos[f"mDiffFit-{i:05d}"]
                   for i in range(8))

    def test_montage_paper_instance_writes_about_1tb(self):
        wf = montage()  # paper defaults
        assert wf.total_output_bytes == pytest.approx(1.1 * 1024 * GB,
                                                      rel=0.15)

    def test_montage_limited_parallelism(self):
        wf = montage(width=64)
        # Sequential tail dominates the critical path.
        ap = achieved_parallelism(wf)
        assert ap < 64 * 0.2

    def test_blast_structure(self):
        wf = blast(n_searches=8)
        assert wf.stages() == ["split", "search", "merge"]
        assert len(wf.stage_tasks("search")) == 8
        assert wf.dependencies("merge") == {
            f"search-{i:04d}" for i in range(8)}

    def test_blast_many_small_requests(self):
        wf = blast(n_searches=4)
        search = wf.tasks["search-0000"]
        # 256 MB chunks at 64 KB granularity -> thousands of requests.
        assert search.inputs[0].n_files >= 1000

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            dd_bag(n_tasks=0)
        with pytest.raises(ValueError):
            montage(width=0)
        with pytest.raises(ValueError):
            blast(n_searches=0)


class TestAnalysis:
    def test_stage_statistics(self):
        wf = diamond()
        stats = {s.stage: s for s in stage_statistics(wf)}
        assert stats["s2"].n_tasks == 2
        assert stats["s2"].total_compute == 5.0

    def test_ideal_profile_diamond(self):
        wf = diamond()
        times, widths = ideal_parallelism_profile(wf)
        # Peak width 2 while b and c overlap.
        assert widths.max() == 2
        assert widths[-1] == 0

    def test_achieved_parallelism_bag_is_task_count_scale(self):
        wf = dd_bag(n_tasks=10, compute_seconds=1.0)
        assert achieved_parallelism(wf) == pytest.approx(10.0)
