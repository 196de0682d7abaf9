"""Executors — run jobs serially or across a process pool.

Two interchangeable drivers with identical semantics and results:

* :class:`SerialExecutor` — in-process, one job at a time.  No worker
  processes, so it is the ``--jobs 1`` default and the safe choice on
  platforms where ``fork`` is unavailable (Windows) or undesirable.
* :class:`ParallelExecutor` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` fan-out with per-job timeouts, bounded
  retries, and crash isolation: a worker dying (segfault, ``os._exit``,
  OOM kill) breaks only its own cell, not the run — the pool is rebuilt
  and the surviving jobs resubmitted, while a job that repeatedly kills
  its worker exhausts its attempts and is reported as failed.

A third driver, :class:`JobLease`, is the leasable unit behind the
:mod:`repro.serve` scheduler: one dedicated single-worker pool running
one job at a time, with the same failure policy and a :meth:`cancel`
hook for graceful server shutdown.

Shared failure policy (both drivers):

* **Deterministic retry backoff** — attempt *n*'s resubmission is
  delayed by ``backoff * 2**(n-1)`` seconds, a fixed schedule with no
  jitter so chaos runs and their journals are reproducible.
* **Timeout escalation** — with ``timeout_factor`` set, a timed-out
  job is retried (within its bounded attempts) with its timeout
  multiplied by the factor, which turns "this cell is slow today" into
  a recoverable condition instead of a dead cell.
* **Graceful interruption** — a ``KeyboardInterrupt`` (Ctrl-C, or
  SIGTERM converted by the runtime) stops scheduling, cancels what it
  can, and returns the completed outcomes with the rest marked
  ``"interrupted"`` — callers keep (and cache) the finished cells.

Timeouts are enforced *inside* the worker via ``SIGALRM`` (each pool
worker runs jobs on its main thread), so a timed-out job ends cleanly
without tearing down the pool.  Where ``SIGALRM`` does not exist the
timeout degrades to best-effort (the job runs to completion) and a
one-time :class:`RuntimeWarning` makes the degradation visible.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
import traceback
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as PoolWaitTimeout
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
    intermittently under heavy pool churn, e.g. crash-isolation
    rounds).  ``forkserver`` forks every worker from a clean,
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


@dataclass
class _Attempt:
    job: Job
    attempts: int = 0


class _FailurePolicy:
    """Retry/backoff/escalation knobs shared by both executors."""

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
    ) -> None:
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self.timeout_factor = timeout_factor

    def backoff_before(self, attempt: int) -> None:
        """Deterministic exponential delay before retry ``attempt``."""
        if self.backoff > 0.0 and attempt > 1:
            time.sleep(self.backoff * 2 ** (attempt - 2))

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
    """Run jobs one at a time in the calling process."""

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
        outcomes = []
        try:
            for job in jobs:
                outcome = self._run_one(job, cache_dir, events, fault_spec)
                on_outcome(outcome)
                outcomes.append(outcome)
        except KeyboardInterrupt:
            for job in jobs[len(outcomes):]:
                outcome = JobOutcome(
                    job, "interrupted", error=INTERRUPTED_ERROR, attempts=0,
                )
                on_outcome(outcome)
                outcomes.append(outcome)
        return outcomes

    def _run_one(
        self,
        job: Job,
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> JobOutcome:
        state = _Attempt(job)
        while True:
            state.attempts += 1
            self.backoff_before(state.attempts)
            events("job_started", state.job, {"attempt": state.attempts})
            started = time.monotonic()
            try:
                envelope = _worker_run(state.job, cache_dir, state.attempts,
                                       fault_spec)
            except JobTimeoutError as exc:
                if self.escalate_timeout(state):
                    continue
                return JobOutcome(
                    job, "timeout", error=str(exc),
                    duration=time.monotonic() - started,
                    attempts=state.attempts,
                )
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                if state.attempts <= self.retries:
                    continue
                return JobOutcome(
                    job, "error", error=_format_error(exc),
                    duration=time.monotonic() - started,
                    attempts=state.attempts,
                )
            else:
                built = envelope.get("trace_built_attempt")
                if built is not None:
                    events("trace_built", job, {"attempt": built})
                return JobOutcome(
                    job, "ok",
                    result=result_from_payload(envelope["result"]),
                    duration=envelope["duration"], attempts=state.attempts,
                    trace_source=envelope.get("trace_source"),
                )


class JobLease(_FailurePolicy):
    """One leased worker slot: a dedicated single-worker pool running
    one job at a time, with the shared failure policy.

    This is the executor-side unit the :mod:`repro.serve` scheduler
    hands out — it holds ``workers`` leases and feeds each from its
    fairness queue.  Because every lease owns its own single-worker
    pool, a crashing job breaks only that pool (rebuilt lazily for the
    next attempt) and blame is never ambiguous the way it is in a
    shared pool; a neighbouring tenant's cell is untouchable.

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

    def run_one(
        self,
        job: Job,
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
    ) -> JobOutcome:
        """Run one job to a terminal outcome (never raises job errors)."""
        events = events or _no_events
        state = _Attempt(job)
        while True:
            if self._cancelled:
                return JobOutcome(
                    state.job, "interrupted", error=INTERRUPTED_ERROR,
                    attempts=state.attempts,
                )
            state.attempts += 1
            self.backoff_before(state.attempts)
            events("job_started", state.job, {"attempt": state.attempts})
            if self._pool is None:
                self._pool = _make_pool(1)
            started = time.monotonic()
            try:
                future = self._pool.submit(
                    _worker_run, state.job, cache_dir, state.attempts,
                    fault_spec,
                )
                if self.heartbeat is None:
                    envelope = future.result()
                else:
                    while True:
                        try:
                            envelope = future.result(timeout=self.heartbeat)
                            break
                        except PoolWaitTimeout:
                            events("worker_heartbeat", state.job, {
                                "attempt": state.attempts,
                                "elapsed": round(
                                    time.monotonic() - started, 3),
                            })
            except BrokenProcessPool:
                duration = time.monotonic() - started
                self.close()    # dead pool; the next attempt gets a new one
                if self._cancelled:
                    return JobOutcome(
                        state.job, "interrupted", error=INTERRUPTED_ERROR,
                        duration=duration, attempts=state.attempts,
                    )
                if state.attempts > self.retries:
                    return JobOutcome(
                        state.job, "error",
                        error="worker process died (crash or kill)",
                        duration=duration, attempts=state.attempts,
                    )
            except JobTimeoutError as exc:
                if self.escalate_timeout(state):
                    continue
                return JobOutcome(
                    state.job, "timeout", error=str(exc),
                    duration=time.monotonic() - started,
                    attempts=state.attempts,
                )
            except Exception as exc:
                if state.attempts > self.retries:
                    return JobOutcome(
                        state.job, "error", error=_format_error(exc),
                        duration=time.monotonic() - started,
                        attempts=state.attempts,
                    )
            else:
                built = envelope.get("trace_built_attempt")
                if built is not None:
                    events("trace_built", state.job, {"attempt": built})
                return JobOutcome(
                    state.job, "ok",
                    result=result_from_payload(envelope["result"]),
                    duration=envelope["duration"], attempts=state.attempts,
                    trace_source=envelope.get("trace_source"),
                )

    def run_group(
        self,
        jobs: Sequence[Job],
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
    ) -> list[JobOutcome]:
        """Run a trace group on this lease, one cell at a time.

        The cells share the lease's persistent single-worker pool, so
        the worker process acquires the trace once — trace cache or
        build — and every later cell in the group hits the capacity-1
        worker memo warm.  Cells run *sequentially* rather than as one
        batched submission on purpose: each cell's
        ``job_started`` fires as it actually begins executing (which is
        what lets a serve-side watchdog attribute a hang to the right
        cell instead of a waiting or finished groupmate), and retries,
        fault injection, heartbeats and crash blame are exactly
        :meth:`run_one`'s — a cell that kills the worker costs only its
        own attempts, and the next cell gets a fresh (cold) pool.
        """
        events = events or _no_events
        return [self.run_one(job, cache_dir, events, fault_spec)
                for job in jobs]

    def cancel(self) -> None:
        """Abort the in-flight attempt: terminate the worker process.

        Killing the worker breaks the lease's pool, which
        :meth:`run_one` observes as ``BrokenProcessPool`` and — with
        the cancel flag latched — reports as ``"interrupted"`` rather
        than retrying.  ``_processes`` is pool-internal but stable
        across supported CPythons, and there is no public way to kill
        a hung worker.
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
        pool = self._pool
        if pool is not None:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass

    def close(self) -> None:
        """Shut the lease's pool down (rebuilt lazily on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


class ParallelExecutor(_FailurePolicy):
    """Fan jobs out over a ``ProcessPoolExecutor``.

    Crash isolation: when a worker dies, ``ProcessPoolExecutor`` breaks
    the whole pool and every in-flight future fails with
    ``BrokenProcessPool`` — the parent cannot tell culprit from victim.
    So a broken shared pool costs nobody an attempt; the survivors are
    re-run in *isolation mode*, one single-worker pool per job, where a
    dying worker indicts exactly one job.  A job that repeatedly kills
    its worker exhausts its bounded attempts and becomes one failed
    cell; everything else completes normally.
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
        # At most one shared round can break (isolation latches on), and
        # isolation rounds charge an attempt to every job they submit,
        # so the loop terminates within retries + 2 rounds.
        isolate = False
        try:
            while pending:
                if isolate:
                    self._isolated_round(pending, done, cache_dir, events,
                                         fault_spec, on_outcome)
                else:
                    isolate = self._shared_round(pending, done, cache_dir,
                                                 events, fault_spec,
                                                 on_outcome)
        except KeyboardInterrupt:
            for state in pending.values():
                outcome = JobOutcome(
                    state.job, "interrupted", error=INTERRUPTED_ERROR,
                    attempts=state.attempts,
                )
                on_outcome(outcome)
                done[state.job.key] = outcome
        return [done[key] for key in order]

    def _shared_round(
        self,
        pending: dict[str, _Attempt],
        done: dict[str, JobOutcome],
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
        on_outcome: OutcomeFn,
    ) -> bool:
        """One pass through a shared pool; True if the pool broke."""
        pool = _make_pool(self.max_workers)
        futures = {}
        broke = False
        settled = False
        try:
            for state in list(pending.values()):
                state.attempts += 1
                self.backoff_before(state.attempts)
                events("job_started", state.job, {"attempt": state.attempts})
                try:
                    future = pool.submit(_worker_run, state.job, cache_dir,
                                         state.attempts, fault_spec)
                except BrokenProcessPool:
                    # died mid-submission; uncharge and leave the rest
                    # of the batch for the isolation rounds
                    state.attempts -= 1
                    broke = True
                    break
                futures[future] = (state, time.monotonic())
            for future in as_completed(futures):
                state, started = futures[future]
                duration = time.monotonic() - started
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    # culprit unknown — uncharge the attempt and let the
                    # isolation rounds assign blame
                    state.attempts -= 1
                    broke = True
                except Exception as exc:
                    self._settle(state, None, exc, pending, done, duration,
                                 on_outcome, events)
                else:
                    self._settle(state, payload, None, pending, done,
                                 duration, on_outcome, events)
            settled = True
        finally:
            # Once every future has resolved, workers are idle or dead
            # and joining the pool's helper threads is cheap — and
            # necessary before the isolation rounds fork fresh pools:
            # forking while a dying pool's queue-feeder threads still
            # hold their locks can deadlock the new workers.  Only an
            # interrupt (a worker may be mid-job) skips the join.
            pool.shutdown(wait=settled, cancel_futures=True)
        return broke

    def _isolated_round(
        self,
        pending: dict[str, _Attempt],
        done: dict[str, JobOutcome],
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
        on_outcome: OutcomeFn,
    ) -> None:
        """Run each pending job in its own single-worker pool."""
        states = list(pending.values())
        for start in range(0, len(states), self.max_workers):
            batch = states[start : start + self.max_workers]
            pools: list[ProcessPoolExecutor] = []
            futures = {}
            settled = False
            try:
                for state in batch:
                    state.attempts += 1
                    self.backoff_before(state.attempts)
                    events("job_started", state.job, {"attempt": state.attempts})
                    pool = _make_pool(1)
                    pools.append(pool)
                    futures[pool.submit(_worker_run, state.job, cache_dir,
                                        state.attempts, fault_spec)] = (
                        state,
                        time.monotonic(),
                    )
                for future in as_completed(futures):
                    state, started = futures[future]
                    duration = time.monotonic() - started
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        # single-worker pool: this job *is* the culprit
                        if state.attempts > self.retries:
                            outcome = JobOutcome(
                                state.job, "error",
                                error="worker process died (crash or kill)",
                                duration=duration, attempts=state.attempts,
                            )
                            on_outcome(outcome)
                            done[state.job.key] = outcome
                            del pending[state.job.key]
                    except Exception as exc:
                        self._settle(state, None, exc, pending, done,
                                     duration, on_outcome, events)
                    else:
                        self._settle(state, payload, None, pending, done,
                                     duration, on_outcome, events)
                settled = True
            finally:
                # join on the settled path for the same fork-safety
                # reason as the shared round (see above)
                for pool in pools:
                    pool.shutdown(wait=settled, cancel_futures=True)

    def _settle(
        self,
        state: _Attempt,
        envelope: dict | None,
        exc: BaseException | None,
        pending: dict[str, _Attempt],
        done: dict[str, JobOutcome],
        duration: float,
        on_outcome: OutcomeFn,
        events: EventFn = _no_events,
    ) -> None:
        """Resolve one attempt's (worker envelope, exception) pair.

        ``duration`` is parent-measured from submit time and only used
        for failures; successful jobs carry their worker-measured
        duration in the envelope, which excludes pool queue wait.
        """
        job = state.job
        outcome: JobOutcome | None = None
        if exc is None:
            assert envelope is not None
            built = envelope.get("trace_built_attempt")
            if built is not None:
                events("trace_built", job, {"attempt": built})
            outcome = JobOutcome(
                job, "ok", result=result_from_payload(envelope["result"]),
                duration=envelope["duration"], attempts=state.attempts,
                trace_source=envelope.get("trace_source"),
            )
        elif isinstance(exc, JobTimeoutError):
            if self.escalate_timeout(state):
                return            # stays pending with a longer timeout
            outcome = JobOutcome(
                job, "timeout", error=str(exc),
                duration=duration, attempts=state.attempts,
            )
        elif state.attempts > self.retries:
            outcome = JobOutcome(
                job, "error", error=_format_error(exc),
                duration=duration, attempts=state.attempts,
            )
        if outcome is not None:
            on_outcome(outcome)
            done[job.key] = outcome
            del pending[job.key]
        # else: stays pending, retried next round


def _format_error(exc: BaseException) -> str:
    head = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return head
