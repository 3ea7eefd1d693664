"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.exec import exec_stats
from repro.exec.scenarios import EXECUTORS


@pytest.fixture(autouse=True)
def _hermetic_store(tmp_path, monkeypatch):
    """CLI caching defaults to on; keep test entries out of the repo."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "repro-store"))
    exec_stats.reset()


class TestCli:
    def test_table1_prints_survey(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Google Traces" in out
        assert "Mesos" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--tasks", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "100%" in out

    def test_fig2_warm_rerun_hits_the_cache(self, capsys):
        assert main(["fig2", "--tasks", "8"]) == 0
        first = capsys.readouterr().out
        assert exec_stats.scenarios_run == 5
        assert main(["fig2", "--tasks", "8"]) == 0
        second = capsys.readouterr().out
        assert second == first
        assert exec_stats.scenarios_run == 5  # zero new simulations
        assert exec_stats.store_hits == 5

    def test_fig2_no_cache_resimulates(self, capsys):
        assert main(["fig2", "--tasks", "8", "--no-cache"]) == 0
        assert main(["fig2", "--tasks", "8", "--no-cache"]) == 0
        assert exec_stats.scenarios_run == 10
        assert exec_stats.store_hits == 0

    def test_fig2_parallel_matches_serial(self, capsys, monkeypatch):
        # Two CPUs as far as the runner knows, so -j 2 really fans out
        # over stealing workers even on a single-CPU host.
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 2)
        assert main(["fig2", "--tasks", "8", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig2", "--tasks", "8", "--no-cache",
                     "-j", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert exec_stats.sweeps_stealing == 1

    def test_plan_jobs_requests_the_parallel_backend(self, capsys,
                                                     monkeypatch):
        # -j 2 must reach the runner as a parallel request: on a
        # single-CPU host that shows as exactly one serial fallback.
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 1)
        monkeypatch.setitem(EXECUTORS, "slowdown-suite",
                            lambda spec: {"runtimes_s": {"bench": 1.0}})
        assert main(["plan", "--hpcc", "1", "--own", "2", "--victims",
                     "4", "--grid", "1.0", "-j", "2"]) == 0
        assert "minimum alpha 1.000" in capsys.readouterr().out
        assert exec_stats.serial_fallbacks == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--workload", "nonesuch"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(Exception):
            main(["fig2", "--tasks", "8", "-j", "0"])

    def test_fig2_profile_writes_artifacts(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig2", "--profile", "--tasks", "8"]) == 0
        assert "profile written" in capsys.readouterr().out
        pstats_file = tmp_path / "results" / "profile-fig2.pstats"
        text_file = tmp_path / "results" / "profile-fig2.txt"
        assert pstats_file.stat().st_size > 0
        assert "cumulative" in text_file.read_text()
