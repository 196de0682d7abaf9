"""Executors — one attempt state machine, three transports.

Every executor runs the same retry policy, :class:`_FailurePolicy`:
:meth:`~_FailurePolicy.begin` charges an attempt, waits out its backoff
and emits ``job_started``; the executor's transport turns the attempt
into a worker envelope or an exception; :meth:`~_FailurePolicy.resolve`
turns that into a terminal :class:`JobOutcome` (ok, timeout, or an
error, a dead worker included) or into a retry.  The executors differ
only in transport:

* :class:`SerialExecutor` — inline: the cell runs in the calling
  process, one at a time.  No worker processes, so it is the
  ``--jobs 1`` default and the safe choice where ``fork`` is
  unavailable (Windows).  A crash fault would kill the caller, so
  :class:`~repro.runtime.Runtime` refuses crash faults at ``jobs=1``.
* :class:`JobLease` — one dedicated single-worker pool running one cell
  at a time, with heartbeats and :meth:`~JobLease.cancel` /
  :meth:`~JobLease.reap` hooks.  A dying worker indicts exactly its own
  cell.  It is the unit the :mod:`repro.serve` scheduler hands out.
* :class:`ParallelExecutor` — a shared ``ProcessPoolExecutor``
  fan-out, the fast path while no worker dies.  A worker dying
  (segfault, ``os._exit``, OOM kill) breaks the whole pool and blame is
  ambiguous, so the pool's unsettled cells are handed to up to
  ``max_workers`` leases, which assign blame exactly.  A cell that
  repeatedly kills its worker exhausts its attempts and fails alone.

The policy:

* **Bounded retries** — an attempt that raised or killed its worker is
  retried while the cell has attempts left (``retries`` extra).
* **Deterministic per-cell backoff** — attempt *n* starts no earlier
  than ``backoff * 2**(n-2)`` seconds after attempt *n-1* failed, a
  fixed schedule with no jitter so chaos runs and their journals are
  reproducible.  Each cell waits only its own delay: cells retrying in
  one round wait concurrently.
* **Timeout escalation** — with ``timeout_factor`` set, a timed-out
  job is retried (within its bounded attempts) with its timeout
  multiplied by the factor, which turns "this cell is slow today" into
  a recoverable condition instead of a dead cell.
* **Graceful interruption** — a ``KeyboardInterrupt`` (Ctrl-C, or
  SIGTERM converted by the runtime) stops scheduling, cancels what it
  can, and returns the completed outcomes with the rest marked
  ``"interrupted"``, each with the attempts it used — callers keep
  (and cache) the finished cells.

Timeouts are enforced *inside* the worker via ``SIGALRM`` (each pool
worker runs jobs on its main thread), so a timed-out job ends cleanly
without tearing down the pool.  Where ``SIGALRM`` does not exist the
timeout degrades to best-effort (the job runs to completion) and a
one-time :class:`RuntimeWarning` makes the degradation visible.
"""

from __future__ import annotations

import multiprocessing
import queue
import signal
import threading
import time
import traceback
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.pipeline import SimResult
from repro.runtime.jobs import Job, execute_job_info, result_from_payload

# events callback: (kind, job, extra-fields) -> None
EventFn = Callable[[str, Job, dict], None]
# outcome callback: invoked the moment a job's outcome is final, before
# run() returns — callers journal/cache each cell as it settles so a
# later hang, crash or interrupt cannot lose already-finished work
OutcomeFn = Callable[["JobOutcome"], None]

INTERRUPTED_ERROR = "interrupted by signal before completion"


class JobTimeoutError(RuntimeError):
    """A job exceeded its per-job timeout."""


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: Job
    status: str         # "ok" | "error" | "timeout" | "interrupted"
    result: SimResult | None = None
    error: str | None = None
    duration: float = 0.0
    attempts: int = 1
    cache_hit: bool = False
    resumed: bool = False
    # How the worker obtained the trace it simulated against:
    # "built" | "cache" | "memo" (None for cache hits and failures —
    # no simulation happened).
    trace_source: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


_timeout_degraded_warned = False


def _call_with_timeout(fn: Callable[[], object], timeout: float | None) -> object:
    """Run ``fn``, raising :class:`JobTimeoutError` after ``timeout`` s.

    Uses ``SIGALRM``/``setitimer``, which only works on the main thread
    of a process with POSIX signals — exactly where executor workers
    (and the serial driver) run.  Anywhere else the call is unbounded,
    and a one-time :class:`RuntimeWarning` says so instead of silently
    dropping the limit.
    """
    wanted = timeout is not None and timeout > 0
    usable = (
        wanted
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        global _timeout_degraded_warned
        if wanted and not _timeout_degraded_warned:
            _timeout_degraded_warned = True
            warnings.warn(
                "per-job timeout requested but SIGALRM is unavailable here "
                "(no POSIX signals or not on the main thread); jobs run "
                "unbounded",
                RuntimeWarning,
                stacklevel=2,
            )
        return fn()

    def _on_alarm(signum, frame):
        raise JobTimeoutError(f"job exceeded timeout of {timeout:.3f}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _worker_run(
    job: Job,
    cache_dir: str | None,
    attempt: int = 1,
    fault_spec: str | None = None,
) -> dict:
    """Pool-worker entry point: execute one job under its timeout.

    Returns an envelope ``{"result": payload, "duration": seconds,
    "trace_source": ..., "trace_built_attempt"?}`` — the duration is
    measured here, in the worker, so it reflects actual execution time
    rather than time spent queued in the pool, and the trace fields
    report how the worker obtained its trace (see
    :func:`repro.runtime.jobs.execute_job_info`).
    """
    started = time.monotonic()
    payload, info = _call_with_timeout(
        lambda: execute_job_info(job, cache_dir, attempt=attempt,
                                 fault_spec=fault_spec),
        job.timeout,
    )
    return {"result": payload, "duration": time.monotonic() - started, **info}


def _no_events(kind: str, job: Job, fields: dict) -> None:
    pass


def _no_outcome(outcome: "JobOutcome") -> None:
    pass


_pool_ctx = None


def _pool_context():
    """The multiprocessing context worker pools are built from.

    The default ``fork`` start method forks workers lazily at submit
    time, while the pool's own queue-feeder and manager threads are
    live — a worker forked while one of those threads holds a lock
    inherits it held-forever and deadlocks on first acquire (observed
    intermittently under heavy pool churn, e.g. leases rebuilding
    pools after crashes).  ``forkserver`` forks every worker from a clean,
    single-threaded server process, which eliminates the entire class;
    preloading this module keeps the per-worker cost at a plain fork
    after the server's one-time warm import.  Falls back to the
    platform default where forkserver does not exist (Windows).
    """
    global _pool_ctx
    if _pool_ctx is None:
        try:
            ctx = multiprocessing.get_context("forkserver")
            ctx.set_forkserver_preload(["repro.runtime.executor"])
        except (ValueError, AttributeError):
            ctx = multiprocessing.get_context()
        _pool_ctx = ctx
    return _pool_ctx


def _make_pool(max_workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max_workers,
                               mp_context=_pool_context())


def _terminate_workers(pool: ProcessPoolExecutor | None) -> None:
    """Terminate every worker process of ``pool`` (hung ones included).

    ``_processes`` is pool-internal but stable across supported
    CPythons, and there is no public way to kill a hung worker.  Call
    it before ``pool.shutdown``, which drops the process table.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass


@dataclass
class _Attempt:
    job: Job
    attempts: int = 0
    # monotonic time before which the next attempt may not start
    retry_at: float = 0.0


class _FailurePolicy:
    """The attempt state machine every executor runs (see module docs)."""

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
    ) -> None:
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self.timeout_factor = timeout_factor

    def begin(self, state: _Attempt, events: EventFn) -> None:
        """Charge the next attempt, wait out its backoff, announce it."""
        state.attempts += 1
        delay = state.retry_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        events("job_started", state.job, {"attempt": state.attempts})

    def resolve(
        self,
        state: _Attempt,
        result: dict | BaseException,
        duration: float,
        events: EventFn,
    ) -> JobOutcome | None:
        """Settle one attempt from its worker envelope or exception.

        Returns the cell's terminal outcome, or None to retry it.
        ``duration`` is parent-measured and only used for failures;
        successful jobs carry their worker-measured duration in the
        envelope, which excludes pool queue wait.  A
        ``BrokenProcessPool`` here must indict this cell alone (an
        inline or single-worker transport).
        """
        job = state.job
        if not isinstance(result, BaseException):
            built = result.get("trace_built_attempt")
            if built is not None:
                events("trace_built", job, {"attempt": built})
            return JobOutcome(
                job, "ok", result=result_from_payload(result["result"]),
                duration=result["duration"], attempts=state.attempts,
                trace_source=result.get("trace_source"),
            )
        if isinstance(result, JobTimeoutError):
            if not self.escalate_timeout(state):
                return JobOutcome(job, "timeout", error=str(result),
                                  duration=duration, attempts=state.attempts)
        elif state.attempts > self.retries:
            error = (
                "worker process died (crash or kill)"
                if isinstance(result, BrokenProcessPool)
                else _format_error(result)
            )
            return JobOutcome(job, "error", error=error, duration=duration,
                              attempts=state.attempts)
        state.retry_at = (
            time.monotonic() + self.backoff * 2 ** (state.attempts - 1)
        )
        return None

    def escalate_timeout(self, state: _Attempt) -> bool:
        """Retry a timed-out attempt with a scaled timeout, if enabled."""
        if (
            self.timeout_factor is None
            or state.job.timeout is None
            or state.attempts > self.retries
        ):
            return False
        state.job = replace(
            state.job, timeout=state.job.timeout * self.timeout_factor
        )
        return True


class SerialExecutor(_FailurePolicy):
    """Run jobs one at a time in the calling process (inline transport)."""

    def run(
        self,
        jobs: Sequence[Job],
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
        on_outcome: OutcomeFn | None = None,
    ) -> list[JobOutcome]:
        events = events or _no_events
        on_outcome = on_outcome or _no_outcome
        outcomes: list[JobOutcome] = []
        state: _Attempt | None = None
        try:
            for job in jobs:
                state = _Attempt(job)
                outcome = None
                while outcome is None:
                    self.begin(state, events)
                    started = time.monotonic()
                    try:
                        result = _worker_run(state.job, cache_dir,
                                             state.attempts, fault_spec)
                    except Exception as exc:
                        result = exc
                    outcome = self.resolve(state, result,
                                           time.monotonic() - started, events)
                on_outcome(outcome)
                outcomes.append(outcome)
        except KeyboardInterrupt:
            for job in jobs[len(outcomes):]:
                # the cell that was running keeps the attempts it used
                running = state is not None and state.job.key == job.key
                outcome = JobOutcome(
                    job, "interrupted", error=INTERRUPTED_ERROR,
                    attempts=state.attempts if running else 0,
                )
                on_outcome(outcome)
                outcomes.append(outcome)
        return outcomes


class JobLease(_FailurePolicy):
    """One leased worker slot: a dedicated single-worker pool running
    one job at a time, with the shared failure policy.

    This is the executor-side unit the :mod:`repro.serve` scheduler
    hands out — it holds ``workers`` leases and feeds each from its
    fairness queue — and where :class:`ParallelExecutor` finishes the
    cells of a broken pool.  Because every lease owns its own
    single-worker pool, a crashing job breaks only that pool (rebuilt
    lazily for the next attempt) and blame is never ambiguous the way
    it is in a shared pool; a neighbouring tenant's cell is
    untouchable.

    :meth:`run_one` is synchronous and never raises for job failures —
    it always returns a terminal :class:`JobOutcome` — so callers can
    drive it from a thread (``asyncio.to_thread``) without an exception
    escaping the executor.  :meth:`cancel` is the shutdown hook: it
    kills the in-flight attempt's worker process, which surfaces in
    :meth:`run_one` as an ``"interrupted"`` outcome (the same status
    the batch executors use for SIGINT/SIGTERM).  :meth:`reap` is the
    *watchdog* hook: same worker kill, but without latching the cancel
    flag, so the cell flows down the ordinary retry/backoff path
    instead of settling interrupted.

    With ``heartbeat`` set, :meth:`run_one` emits a
    ``worker_heartbeat`` event every ``heartbeat`` seconds while an
    attempt is executing — proof of life for the lease itself, and the
    signal a serve-side watchdog contrasts with wall-clock silence to
    spot a wedged slot.
    """

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
        heartbeat: float | None = None,
    ) -> None:
        super().__init__(retries=retries, backoff=backoff,
                         timeout_factor=timeout_factor)
        self.heartbeat = heartbeat if heartbeat and heartbeat > 0 else None
        self._pool: ProcessPoolExecutor | None = None
        self._cancelled = False
        # Serializes pool creation + submit against reap()/close(), so
        # a cancel() can never miss the worker of an attempt it races.
        self._lock = threading.Lock()

    def run_one(
        self,
        job: Job,
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
    ) -> JobOutcome:
        """Run one job to a terminal outcome (never raises job errors)."""
        return self._drive(_Attempt(job), cache_dir, events or _no_events,
                           fault_spec)

    def _drive(
        self,
        state: _Attempt,
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> JobOutcome:
        """Run a cell's remaining attempts, continuing its attempt count."""
        while not self._cancelled:
            self.begin(state, events)
            started = time.monotonic()
            try:
                result = self._attempt(state, cache_dir, events, fault_spec,
                                       started)
            except BrokenProcessPool as exc:
                self.close()    # dead pool; the next attempt gets a new one
                if self._cancelled:
                    break
                result = exc
            except Exception as exc:
                result = exc
            outcome = self.resolve(state, result, time.monotonic() - started,
                                   events)
            if outcome is not None:
                return outcome
        return JobOutcome(state.job, "interrupted", error=INTERRUPTED_ERROR,
                          attempts=state.attempts)

    def _attempt(
        self,
        state: _Attempt,
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
        started: float,
    ) -> dict:
        """Submit one attempt to the lease's worker; wait for its envelope."""
        with self._lock:
            if self._cancelled:
                # cancel() landed before there was a worker to kill
                raise BrokenProcessPool(INTERRUPTED_ERROR)
            if self._pool is None:
                self._pool = _make_pool(1)
            future = self._pool.submit(_worker_run, state.job, cache_dir,
                                       state.attempts, fault_spec)
        while not wait([future], timeout=self.heartbeat).done:
            events("worker_heartbeat", state.job, {
                "attempt": state.attempts,
                "elapsed": round(time.monotonic() - started, 3),
            })
        return future.result()

    def cancel(self) -> None:
        """Abort the in-flight attempt: terminate the worker process.

        Killing the worker breaks the lease's pool, which
        :meth:`run_one` observes as ``BrokenProcessPool`` and — with
        the cancel flag latched — reports as ``"interrupted"`` rather
        than retrying.
        """
        self._cancelled = True
        self.reap()

    def reap(self) -> None:
        """Kill the in-flight attempt's worker *without* cancelling.

        The lease-watchdog hook: unlike :meth:`cancel`, the cancel flag
        stays clear, so :meth:`run_one` observes the resulting
        ``BrokenProcessPool`` as an ordinary worker death — the attempt
        is retried on a fresh pool (lazily rebuilt) under the bounded
        retry/backoff policy, or settles ``"error"`` once attempts are
        exhausted.  A hang therefore costs the cell, never the slot.
        """
        with self._lock:
            _terminate_workers(self._pool)

    def close(self) -> None:
        """Shut the lease's pool down (rebuilt lazily on next use)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None


class ParallelExecutor(_FailurePolicy):
    """Fan jobs out over a shared ``ProcessPoolExecutor``.

    Crash isolation: when a worker dies, ``ProcessPoolExecutor`` breaks
    the whole pool and every in-flight future fails with
    ``BrokenProcessPool`` — the parent cannot tell culprit from victim.
    So a broken pool costs those cells nothing (their attempt is
    uncharged), and every unsettled cell moves to up to
    ``max_workers`` :class:`JobLease` s, where a dying worker indicts
    exactly one cell.  Leases are the fallback only: a shared pool
    costs less per cell while no worker dies.
    """

    def __init__(
        self,
        max_workers: int,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
    ) -> None:
        super().__init__(retries=retries, backoff=backoff,
                         timeout_factor=timeout_factor)
        self.max_workers = max(1, max_workers)

    def run(
        self,
        jobs: Sequence[Job],
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
        on_outcome: OutcomeFn | None = None,
    ) -> list[JobOutcome]:
        events = events or _no_events
        on_outcome = on_outcome or _no_outcome
        order = [job.key for job in jobs]
        pending = {job.key: _Attempt(job) for job in jobs}
        done: dict[str, JobOutcome] = {}

        def settle(outcome: JobOutcome) -> None:
            on_outcome(outcome)
            done[outcome.job.key] = outcome
            del pending[outcome.job.key]

        # Every unbroken round charges each pending cell an attempt, and
        # the leases settle every cell a broken round leaves, so this
        # terminates within retries + 1 rounds.
        try:
            while pending:
                if self._shared_round(pending, settle, cache_dir, events,
                                      fault_spec):
                    self._lease_round(pending, settle, cache_dir, events,
                                      fault_spec)
        except KeyboardInterrupt:
            for state in list(pending.values()):
                settle(JobOutcome(state.job, "interrupted",
                                  error=INTERRUPTED_ERROR,
                                  attempts=state.attempts))
        return [done[key] for key in order]

    def _shared_round(
        self,
        pending: dict[str, _Attempt],
        settle: OutcomeFn,
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> bool:
        """One pass through a shared pool; True if the pool broke."""
        pool = _make_pool(self.max_workers)
        futures = {}
        broke = False
        settled = False
        try:
            for state in list(pending.values()):
                self.begin(state, events)
                try:
                    future = pool.submit(_worker_run, state.job, cache_dir,
                                         state.attempts, fault_spec)
                except BrokenProcessPool:
                    # died mid-submission; uncharge and leave the rest
                    # of the batch to the leases
                    state.attempts -= 1
                    broke = True
                    break
                futures[future] = (state, time.monotonic())
            for future in as_completed(futures):
                state, started = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    # culprit unknown — uncharge the attempt and let the
                    # leases assign blame
                    state.attempts -= 1
                    broke = True
                    continue
                except Exception as exc:
                    result = exc
                outcome = self.resolve(state, result,
                                       time.monotonic() - started, events)
                if outcome is not None:
                    settle(outcome)
            settled = True
        finally:
            # Once every future has resolved, workers are idle or dead
            # and joining the pool's helper threads is cheap — and
            # necessary before the leases fork fresh pools: forking
            # while a dying pool's queue-feeder threads still hold
            # their locks can deadlock the new workers.  An interrupt
            # (a worker may be mid-job, or hung) kills the workers
            # instead and skips the join, so none outlives the run.
            if not settled:
                _terminate_workers(pool)
            pool.shutdown(wait=settled, cancel_futures=True)
        return broke

    def _lease_round(
        self,
        pending: dict[str, _Attempt],
        settle: OutcomeFn,
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> None:
        """Settle every pending cell on up to ``max_workers`` leases.

        Each cell continues its attempt count.  Lease threads only run
        attempts; outcomes settle here, on the calling thread.  Ctrl-C
        cancels every lease, which settles running and still-queued
        cells ``"interrupted"`` the way serve's drain does.
        """
        leases = [
            JobLease(retries=self.retries, backoff=self.backoff,
                     timeout_factor=self.timeout_factor)
            for _ in range(min(self.max_workers, len(pending)))
        ]
        idle: queue.SimpleQueue[JobLease] = queue.SimpleQueue()
        for lease in leases:
            idle.put(lease)

        def drive(state: _Attempt) -> JobOutcome:
            lease = idle.get()
            try:
                return lease._drive(state, cache_dir, events, fault_spec)
            finally:
                idle.put(lease)

        try:
            with ThreadPoolExecutor(len(leases)) as threads:
                futures = [threads.submit(drive, state)
                           for state in pending.values()]
                try:
                    for future in as_completed(futures):
                        settle(future.result())
                except KeyboardInterrupt:
                    for lease in leases:
                        lease.cancel()
                    for future in futures:
                        outcome = future.result()
                        if outcome.job.key in pending:
                            settle(outcome)
        finally:
            for lease in leases:
                lease.close()


def _format_error(exc: BaseException) -> str:
    head = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return head
