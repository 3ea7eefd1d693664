"""SweepRunner: backends, ordering, store integration, crash surfacing."""

import json

import pytest

from repro.exec import (ResultStore, ScenarioError, ScenarioSpec,
                        SchedulerPolicy, SweepRunner, exec_stats, fig2_spec)
from repro.exec.runner import BACKENDS
from repro.units import MB

TINY = dict(n_tasks=4, file_size=4 * MB)


def _payloads(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


class TestSerialBackend:
    def test_runs_in_spec_order(self):
        specs = [fig2_spec(a, **TINY) for a in (0.5, 0.0, 1.0)]
        results = SweepRunner("serial").run(specs)
        assert [r.spec for r in results] == specs
        assert [r.payload["alpha"] for r in results] == [0.5, 0.0, 1.0]
        assert all(not r.cached and r.wall_s > 0 for r in results)
        assert exec_stats.scenarios_run == 3
        assert exec_stats.sweeps_serial == 1

    def test_unknown_kind_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown scenario kind"):
            SweepRunner("serial").run([ScenarioSpec.make("nonesuch")])
        assert exec_stats.worker_crashes == 1

    def test_executor_raise_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="debug-crash"):
            SweepRunner("serial").run([ScenarioSpec.make("debug-crash")])

    def test_unknown_backend_rejected(self):
        assert BACKENDS == ("serial", "stealing")
        with pytest.raises(ValueError):
            SweepRunner("threads")
        with pytest.raises(ValueError):
            SweepRunner("stealing", jobs=0)

    def test_default_backend_follows_jobs(self):
        assert SweepRunner().backend == "serial"
        assert SweepRunner(jobs=1).backend == "serial"
        assert SweepRunner(jobs=2).backend == "stealing"
        assert SweepRunner("serial", jobs=4).backend == "serial"


class TestProcessBackend:
    """``jobs > 1`` with no backend named: worker processes fed by the
    work-stealing scheduler."""

    def test_matches_serial_byte_for_byte(self):
        specs = [fig2_spec(a, **TINY, keep_series=True)
                 for a in (0.0, 0.5, 1.0)]
        serial = SweepRunner("serial").run(specs)
        parallel = SweepRunner(jobs=2, auto_fallback=False).run(specs)
        assert _payloads(serial) == _payloads(parallel)
        assert [r.spec for r in parallel] == specs
        assert exec_stats.sweeps_stealing == 1

    def test_soft_crash_surfaces_typed(self):
        specs = [fig2_spec(0.5, **TINY),
                 ScenarioSpec.make("debug-crash")]
        with pytest.raises(ScenarioError, match="debug-crash"):
            SweepRunner(jobs=2, auto_fallback=False).run(specs)
        assert exec_stats.worker_crashes == 1

    def test_pickle_hostile_exception_keeps_its_cause(self):
        # An executor exception that cannot cross the worker pipe raw
        # (args/__init__ mismatch) must still surface with its real
        # message, not as a lost worker.
        specs = [ScenarioSpec.make("debug-crash", pickle_hostile=True),
                 ScenarioSpec.make("debug-crash", pickle_hostile=True,
                                   tag=1)]
        with pytest.raises(ScenarioError,
                           match="13: debug-crash scenario failed") as err:
            SweepRunner(jobs=2, auto_fallback=False).run(specs)
        assert "worker process died" not in str(err.value)
        assert exec_stats.sched_requeues == 0

    def test_scenario_error_pickles(self):
        import pickle

        err = pickle.loads(pickle.dumps(
            ScenarioError(fig2_spec(0.5, **TINY), "boom")))
        assert err.message == "boom"
        assert err.spec.param("alpha") == 0.5
        assert "failed: boom" in str(err)

    def test_worker_death_surfaces_typed(self):
        # hard=True makes the worker os._exit(3); with no retries left
        # the runner must surface it as ScenarioError, not hang.
        specs = [ScenarioSpec.make("debug-crash", hard=True),
                 ScenarioSpec.make("debug-crash", hard=True, tag=1)]
        runner = SweepRunner(jobs=2, auto_fallback=False,
                             policy=SchedulerPolicy(max_retries=0))
        with pytest.raises(ScenarioError, match="worker process died"):
            runner.run(specs)
        assert exec_stats.worker_crashes == 1

    def test_single_pending_scenario_stays_in_process(self):
        # Degenerate fan-out of one: not worth a worker process.
        results = SweepRunner(jobs=4, auto_fallback=False).run(
            [fig2_spec(0.5, **TINY)])
        assert results[0].payload["alpha"] == 0.5
        assert exec_stats.scenarios_run == 1
        assert exec_stats.sched_workers_spawned == 0


class TestAutoFallback:
    def test_single_cpu_falls_back_to_serial(self, monkeypatch, caplog):
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 1)
        specs = [fig2_spec(a, **TINY) for a in (0.0, 1.0)]
        with caplog.at_level("INFO", logger="repro.exec.runner"):
            results = SweepRunner(jobs=2).run(specs)
        assert [r.payload["alpha"] for r in results] == [0.0, 1.0]
        assert exec_stats.serial_fallbacks == 1
        assert exec_stats.sweeps_serial == 1
        assert exec_stats.sweeps_stealing == 0
        assert exec_stats.sched_workers_spawned == 0
        notes = [r for r in caplog.records if "serial backend" in r.message]
        assert len(notes) == 1

    def test_fallback_matches_process_byte_for_byte(self, monkeypatch):
        specs = [fig2_spec(a, **TINY, keep_series=True) for a in (0.0, 1.0)]
        parallel = SweepRunner(jobs=2, auto_fallback=False).run(specs)
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 1)
        fallback = SweepRunner(jobs=2).run(specs)
        assert _payloads(parallel) == _payloads(fallback)

    def test_multi_cpu_keeps_the_stealing_backend(self, monkeypatch):
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 4)
        specs = [fig2_spec(a, **TINY) for a in (0.0, 1.0)]
        results = SweepRunner(jobs=2).run(specs)
        assert [r.payload["alpha"] for r in results] == [0.0, 1.0]
        assert exec_stats.serial_fallbacks == 0
        assert exec_stats.sweeps_stealing == 1

    def test_oversubscribed_jobs_clamped_to_cpu_count(self, monkeypatch):
        import repro.exec.runner as runner_mod
        import repro.exec.scheduler as scheduler_mod

        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 2)
        seen = {}
        real_scheduler = scheduler_mod.WorkStealingScheduler

        def spy_scheduler(jobs, **kwargs):
            seen["jobs"] = jobs
            return real_scheduler(jobs=jobs, **kwargs)

        monkeypatch.setattr(scheduler_mod, "WorkStealingScheduler",
                            spy_scheduler)
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.5, 1.0)]
        SweepRunner(jobs=8).run(specs)
        assert seen["jobs"] == 2
        assert exec_stats.sched_workers_spawned == 2

    def test_opt_out_keeps_real_workers(self, monkeypatch):
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 1)
        runner = SweepRunner(jobs=2, auto_fallback=False)
        assert runner._effective_backend() == "stealing"
        assert exec_stats.serial_fallbacks == 0


class TestCacheIntegration:
    def test_warm_run_executes_nothing(self, store_dir):
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.5, 1.0)]
        store = ResultStore(salt="v1")
        cold = SweepRunner("serial", cache=store).run(specs)
        assert exec_stats.scenarios_run == 3
        assert exec_stats.store_stores == 3
        # A warm parallel sweep has nothing pending: no worker spawns.
        warm = SweepRunner(jobs=2, auto_fallback=False,
                           cache=store).run(specs)
        assert exec_stats.scenarios_run == 3  # unchanged: zero new sims
        assert exec_stats.store_hits == 3
        assert exec_stats.sched_workers_spawned == 0
        assert all(r.cached for r in warm)
        assert _payloads(cold) == _payloads(warm)

    def test_cache_true_uses_default_location(self, store_dir):
        runner = SweepRunner("serial", cache=True)
        assert isinstance(runner.cache, ResultStore)
        runner.run([fig2_spec(0.5, **TINY)])
        assert list((store_dir / "blobs").glob("*.json"))

    def test_stealing_backend_reads_and_feeds_the_cache(self, store_dir):
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.5, 1.0)]
        store = ResultStore(salt="v1")
        cold = SweepRunner(jobs=2, cache=store,
                           auto_fallback=False).run(specs)
        warm = SweepRunner("serial", cache=store).run(specs)
        assert all(r.cached for r in warm)
        assert _payloads(cold) == _payloads(warm)

    def test_partial_warmth_runs_only_the_new_specs(self, store_dir):
        store = ResultStore(salt="v1")
        SweepRunner("serial", cache=store).run([fig2_spec(0.0, **TINY)])
        exec_stats.reset()
        specs = [fig2_spec(0.0, **TINY), fig2_spec(1.0, **TINY)]
        results = SweepRunner("serial", cache=store).run(specs)
        assert [r.cached for r in results] == [True, False]
        assert exec_stats.scenarios_run == 1
