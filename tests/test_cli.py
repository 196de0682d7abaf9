"""Tests for the ``python -m repro`` command-line interface."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.__main__ import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep CLI invocations from touching the real ~/.cache/repro."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not-a-workload"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gzip"])
        assert args.scheme == "dlvp"
        assert args.recovery == "flush"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "perlbmk" in out and "80 workloads (78 paper" in out

    def test_run(self, capsys):
        assert main(["run", "aifirf", "--instructions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "aifirf" in out

    def test_run_unknown_scheme(self, capsys):
        assert main(["run", "gzip", "--scheme", "bogus",
                     "--instructions", "1000"]) == 2

    def test_run_with_replay(self, capsys):
        assert main(["run", "gzip", "--recovery", "oracle_replay",
                     "--instructions", "2000"]) == 0

    def test_run_dvtage(self, capsys):
        assert main(["run", "nat", "--scheme", "dvtage",
                     "--instructions", "2000"]) == 0

    def test_profile(self, capsys):
        assert main(["profile", "perlbmk", "--instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "conflicting loads" in out

    def test_figure_table(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "99"]) == 2

    def test_figure_with_subset(self, capsys):
        assert main(["figure", "1", "--instructions", "2000",
                     "--workloads", "gzip", "nat"]) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestRuntimeFlags:
    def test_run_with_jobs_and_no_cache(self, capsys):
        assert main(["run", "gzip", "--instructions", "1500",
                     "--jobs", "2", "--no-cache"]) == 0
        out, err = capsys.readouterr()
        assert "speedup" in out and "gzip" in out
        assert "2 jobs" in err and "0 cache hits" in err

    def test_figure_parallel_matches_serial(self, capsys, tmp_path):
        args = ["figure", "6", "--instructions", "1500",
                "--workloads", "gzip", "nat"]
        assert main(args + ["--jobs", "2",
                            "--cache-dir", str(tmp_path / "a")]) == 0
        parallel_out = capsys.readouterr().out
        assert main(args + ["--jobs", "1", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_figure_warm_cache_executes_nothing(self, capsys, tmp_path):
        args = ["figure", "6", "--instructions", "1500",
                "--workloads", "gzip", "nat",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        _, err = capsys.readouterr()
        assert "0 executed" in err
        from repro.runtime import read_journal
        events = read_journal(tmp_path / "cache" / "last-run.jsonl")
        # journals append (never truncate); isolate the warm run by run_id
        warm_id = [e for e in events if e["event"] == "run_started"][-1]["run_id"]
        warm = [e for e in events if e["run_id"] == warm_id]
        assert len(warm) < len(events)  # cold run's events retained too
        assert all(e["event"] != "job_started" for e in warm)
        assert any(e["event"] == "cache_hit" for e in warm)


class TestSweep:
    def test_sweep_smoke(self, capsys):
        assert main(["sweep", "--schemes", "dlvp", "vtage",
                     "--workloads", "gzip", "nat",
                     "--instructions", "1500", "--jobs", "2",
                     "--no-cache"]) == 0
        out, err = capsys.readouterr()
        assert "dlvp" in out and "vtage" in out
        assert "gzip" in out and "nat" in out
        assert "(geo mean)" in out
        assert "6 jobs" in err  # 2 schemes x 2 workloads + 2 baselines

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        args = ["sweep", "--schemes", "dlvp", "--workloads", "gzip",
                "--instructions", "1500",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "2 cache hits" in warm.err

    def test_sweep_unknown_scheme(self, capsys):
        assert main(["sweep", "--schemes", "not-a-scheme",
                     "--workloads", "gzip", "--no-cache"]) == 2

    def test_sweep_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--schemes", "dlvp", "--workloads", "nope"]
            )


def _proc_stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of ``pid`` from ``/proc``, or None once gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = text.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                kids.append(int(entry))
    return kids


def _live(pids: list[int]) -> list[int]:
    return [pid for pid in pids
            if (stat := _proc_stat(pid)) is not None and stat[0] != "Z"]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads the process table from /proc")
class TestOrphanedWorkers:
    def test_sigkilled_sweep_leaves_no_live_worker(self):
        """Pool workers are forkserver children, not the run's: they must
        still exit once the run that owns them is SIGKILLed."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]),
                   REPRO_FAULT_SPEC="hang@gzip/dlvp")
        # the hang keeps the sweep running, so both workers exist when
        # it is killed: one busy in the hung cell, one idle once the
        # other cells settle
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--jobs", "2",
             "--schemes", "baseline", "dlvp", "--workloads", "gzip", "nat",
             "--instructions", "1000", "--no-cache"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.1)
                workers = [worker for child in _children(proc.pid)
                           for worker in _children(child)]
        finally:
            proc.kill()
            proc.wait()
        assert len(workers) == 2, workers
        deadline = time.monotonic() + 10
        while _live(workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = _live(workers)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []
