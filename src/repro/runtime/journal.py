"""Structured JSONL run journal.

Every orchestration step emits one flat JSON object per line:
``run_started``, ``job_submitted``, ``cache_hit`` / ``cache_miss`` /
``cache_corrupt``, ``job_resumed``, ``job_started`` (per attempt),
``job_finished`` (status, duration, error — and the result payload for
successful jobs, which is what makes journal-driven resume possible),
``fault_injected``, ``run_interrupted`` and ``run_finished`` (aggregate
summary).  The journal is the ground truth for questions like "did the
warm-cache rerun execute any simulations?" — grep the file, or load it
with :func:`read_journal`.

Durability: every event carries this run's ``run_id`` and, when a path
is given, is appended to the file as it happens — a crashed or killed
run leaves a readable prefix (at worst one torn final line, which
:func:`read_journal` tolerates).  Each event is written with a single
``os.write`` on an ``O_APPEND`` descriptor, so writers sharing one
journal file — concurrent runs, or a run and its resumed successor —
never interleave torn lines the way line-buffered stream writes can.
Existing journal files are **appended to**, never truncated, so one
file can hold the history of a crashed run and its resumed successor,
distinguishable by ``run_id``.

Event schema (field names are stable; new fields only ever get added):

========================  ====================================================
event                     fields beyond ``event``, ``ts``, ``run_id``
========================  ====================================================
``run_started``           ``jobs``, ``workers``, ``cached``, ``resumable``
``job_submitted``         job identity (workload, scheme_id, key, ...)
``job_resumed``           ``key``, ``workload``, ``scheme``
``cache_hit``/``miss``    ``key``, ``workload``, ``scheme``
``cache_corrupt``         ``key``, ``reason``, ``quarantined`` (path)
``job_started``           ``key``, ``workload``, ``scheme``, ``attempt``
``trace_built``           ``key``, ``workload``, ``scheme``, ``attempt``
                          (the attempt whose worker generated the trace)
``job_finished``          ``key``, ``workload``, ``scheme``, ``status``,
                          ``duration``, ``attempts``, ``error``,
                          ``result`` (payload, ``status == "ok"`` only)
``fault_injected``        ``key``, ``fault`` (kind), ``rule``
``run_interrupted``       ``completed``, ``interrupted``
``run_finished``          the :meth:`RunJournal.summary` counters
========================  ====================================================
"""

from __future__ import annotations

import json
import os
import time
import uuid
import warnings
from collections.abc import Callable
from pathlib import Path


class RunJournal:
    """Collect and (optionally) persist structured run events.

    Args:
        path: JSONL file to append events to (one ``O_APPEND`` write
            per event); None keeps events in memory only.
        run_id: Identifier stamped on every event; autogenerated when
            omitted.  Lets multiple runs share one journal file and
            still be told apart.
        tap: Called with every recorded event dict, after it is
            persisted: a way to observe a run's events as they happen
            without reading the file back.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        run_id: str | None = None,
        tap: Callable[[dict], None] | None = None,
    ) -> None:
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self.path = Path(path) if path is not None else None
        self.tap = tap
        self.events: list[dict] = []
        self._fd: int | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # O_APPEND, never truncate: a journal file may hold the
            # history of a crashed run plus its resumed successor, and
            # concurrent writers must not interleave partial lines —
            # each event below is one atomic-append os.write.
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )

    def event(self, kind: str, **fields: object) -> dict:
        """Record one event; one ``os.write`` to disk when persistent."""
        entry: dict = {
            "event": kind, "ts": round(time.time(), 6), "run_id": self.run_id,
        }
        entry.update(fields)
        self.events.append(entry)
        if self._fd is not None:
            os.write(self._fd, (json.dumps(entry) + "\n").encode("utf-8"))
        if self.tap is not None:
            self.tap(entry)
        return entry

    def close(self) -> None:
        """Close the backing file (further events stay in memory only)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def count(self, kind: str, **match: object) -> int:
        """Number of recorded events of ``kind`` matching ``match``."""
        return sum(
            1
            for e in self.events
            if e["event"] == kind and all(e.get(k) == v for k, v in match.items())
        )

    def summary(self) -> dict:
        """Aggregate counters over everything recorded so far."""
        finished = [e for e in self.events if e["event"] == "job_finished"]
        return {
            "jobs": self.count("job_submitted"),
            "cache_hits": self.count("cache_hit"),
            "resumed": self.count("job_resumed"),
            "executed": len(finished),
            "succeeded": sum(1 for e in finished if e.get("status") == "ok"),
            "failed": sum(1 for e in finished if e.get("status") == "error"),
            "timed_out": sum(1 for e in finished if e.get("status") == "timeout"),
            "interrupted": sum(
                1 for e in finished if e.get("status") == "interrupted"
            ),
            "retries": max(0, self.count("job_started") - len(finished)),
            "sim_seconds": round(
                sum(e.get("duration", 0.0) for e in finished), 3
            ),
        }

    def format_summary(self) -> str:
        """One-line terminal summary of the run."""
        s = self.summary()
        parts = [
            f"{s['jobs']} jobs",
            f"{s['cache_hits']} cache hits",
            f"{s['executed']} executed ({s['sim_seconds']:.1f}s simulated)",
        ]
        if s["resumed"]:
            parts.append(f"{s['resumed']} resumed from journal")
        if s["failed"]:
            parts.append(f"{s['failed']} FAILED")
        if s["timed_out"]:
            parts.append(f"{s['timed_out']} TIMED OUT")
        if s["interrupted"]:
            parts.append(f"{s['interrupted']} INTERRUPTED")
        return "[repro.runtime] " + ", ".join(parts)


def read_journal(path: str | Path) -> list[dict]:
    """Parse a JSONL journal file back into event dicts.

    A crashed run can leave a half-written final line; that torn tail
    is dropped with a :class:`RuntimeWarning` rather than crashing the
    read.  Corruption anywhere *before* the final line is not a normal
    crash artifact and raises :class:`ValueError` with the line number.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    events: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            if lineno == len(lines):
                warnings.warn(
                    f"journal {path}: dropped torn final line "
                    f"({len(line)} bytes) — likely a crashed run",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                raise ValueError(
                    f"corrupt journal line {path}:{lineno}"
                ) from None
    return events


def completed_results(source: str | Path | list[dict]) -> dict[str, dict]:
    """Map job key -> result payload for every ``ok`` finish in a journal.

    This is the resume index: a relaunched run skips any job whose key
    appears here, reconstructing its result from the journal payload —
    no cache required.  Accepts a journal path or pre-read events; the
    latest finish per key wins.
    """
    events = source if isinstance(source, list) else read_journal(source)
    done: dict[str, dict] = {}
    for event in events:
        if (
            event.get("event") == "job_finished"
            and event.get("status") == "ok"
            and event.get("key")
            and isinstance(event.get("result"), dict)
        ):
            done[event["key"]] = event["result"]
    return done
