"""The farm scheduler: dedup, fairness, worker-lease dispatch, recovery.

One :class:`Scheduler` sits between the gateway's connections and the
runtime's executors.  Every submitted grid is expanded into
content-hashed :class:`~repro.runtime.Job` cells and each cell takes
exactly one of three paths:

* **cache hit** — the shared :class:`~repro.runtime.ResultCache`
  already holds the result; it is returned immediately (and the entry's
  LRU clock refreshed) without touching a worker.
* **in-flight join** — another tenant's identical cell is already
  queued or executing; this ticket *subscribes* to that execution
  instead of scheduling a second one.  Two users asking for the same
  (workload, scheme, config) cell pay for one simulation.
* **miss** — the cell is queued on its tenant's queue and eventually
  dispatched to a :class:`~repro.runtime.JobLease` worker slot.

Fairness is round-robin **across tenants, not across jobs**: each
dispatch takes the head of the next non-empty tenant queue, so a tenant
flooding thousands of cells delays its own backlog, not a neighbour's
two-cell grid.  Queues are bounded per tenant (`max_pending_per_tenant`)
and — on top of that — globally (`max_pending_total` cells and
`max_pending_cost` summed instructions): a submission that would
overflow its tenant bound raises :class:`TenantQueueFull`, one that
would overload the farm as a whole raises :class:`ServerOverloaded`
carrying a ``retry_after`` hint derived from the observed per-cell
settle rate.  Admission is all-or-nothing — partial grids never enter
the farm.

Crash survivability (none of which costs the settle hot path a write):

* every admitted ticket is persisted once to a :class:`~repro.serve.
  tickets.TicketStore` record (and once more at completion);
* the settled-set lives in the journal — every ``job_finished`` line
  embeds the result payload for ok cells — so :meth:`resume` can
  re-attach a disconnected client to a live ticket (replaying what
  already settled) or replay a finished ticket wholesale;
* :meth:`recover` rebuilds the queues from unfinished ticket records on
  gateway startup, settling journal/cache-covered cells immediately and
  re-queueing the rest, so a SIGKILL'd gateway restarted on the same
  cache root finishes the grid;
* a lease watchdog reaps worker slots silent past ``lease_timeout`` —
  the reaped attempt flows down the ordinary retry/backoff path, so a
  chaos-injected hang costs its cell bounded retries, never the slot.

Progress multiplexing reuses the journal: every event the scheduler
journals is tapped into an :class:`~repro.observe.EventStream` (for
``watch`` connections) and routed to the tickets subscribed to that
job key (for ``submit --watch`` progress), so the wire stream and the
on-disk journal can never disagree.

Shutdown reuses the PR 2 interruption machinery: queued-but-unstarted
cells settle as ``"interrupted"`` (:data:`~repro.runtime.executor.
INTERRUPTED_ERROR`) immediately, running cells get a grace period and
are then cancelled via :meth:`JobLease.cancel`, and every subscribed
client still receives a terminal line for every cell it asked about.
Client disconnect, by contrast, cancels **nothing** — the grid keeps
executing into the shared cache and the ticket stays resumable.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.observe import EventStream, Subscription
from repro.runtime import (
    INTERRUPTED_ERROR,
    Job,
    JobLease,
    JobOutcome,
    ResultCache,
    RunJournal,
    read_journal,
    trace_cache_key,
)
from repro.serve.protocol import GridRequest
from repro.serve.tickets import TicketRecordError, TicketStore

DEFAULT_MAX_PENDING = 512
# retry_after hints are clamped to this window: short enough that a
# well-behaved client retries within one farm "breath", long enough
# that a thundering herd cannot re-flood a still-loaded queue.
MIN_RETRY_AFTER = 1.0
MAX_RETRY_AFTER = 60.0


class TenantQueueFull(RuntimeError):
    """A submission would overflow its tenant's bounded queue."""


class ServerClosing(RuntimeError):
    """The scheduler is draining and accepts no new submissions."""


class ServerOverloaded(RuntimeError):
    """The farm-wide admission bound rejected a submission.

    ``retry_after`` is the server's estimate (seconds) of when the
    backlog will have drained enough to admit a grid of this size.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class UnknownTicket(KeyError):
    """``resume`` named a ticket with no live state and no record."""


@dataclass
class Ticket:
    """One client submission's view of the farm.

    A ticket owns the connection's :class:`Subscription` mailbox; the
    scheduler posts ``result`` lines (must-deliver), optional progress
    ``event`` lines (droppable), and finally one ``done`` line before
    closing the mailbox.  ``settled`` keeps every result line already
    delivered so a reconnecting client (:meth:`Scheduler.resume`) can
    be replayed the part of the stream it missed; the mailbox itself is
    swappable — client disconnect orphans the mailbox, never the grid.
    """

    id: str
    tenant: str
    watch: bool
    sub: Subscription
    jobs: dict[str, Job]                     # key -> unique cell
    pending: set[str] = field(default_factory=set)
    shared_keys: set[str] = field(default_factory=set)
    counters: Counter = field(default_factory=Counter)
    settled: list[dict] = field(default_factory=list)
    created: float = field(default_factory=time.time)

    @property
    def done(self) -> bool:
        return not self.pending

    def summary(self) -> dict:
        """The ``done`` line's accounting for this submission."""
        return {
            "cells": len(self.jobs),
            "executed": self.counters["executed"],
            "cached": self.counters["cached"],
            "shared": self.counters["shared"],
            "failed": self.counters["failed"],
            "interrupted": self.counters["interrupted"],
        }

    def deliver(self, message: dict) -> None:
        """One must-deliver result line: record for replay, then post."""
        self.settled.append(message)
        self.sub.put(message, droppable=False)


@dataclass
class _InFlight:
    """One queued-or-executing unique cell and its subscribers."""

    job: Job
    tenant: str                              # who queued it first
    tickets: list[Ticket]
    running: bool = False
    lease: JobLease | None = None
    # monotonic clock of the running attempt's start; the watchdog
    # compares it against ``lease_timeout`` to spot wedged slots
    attempt_started: float | None = None
    # the cell's own attempt has actually begun on the worker
    # (``job_started`` seen since dispatch).  A cell dispatched as part
    # of a trace group waits its turn on the lease thread with
    # ``running=True`` but ``started=False`` — the watchdog must not
    # attribute a groupmate's hang to a cell still waiting in line.
    started: bool = False


class Scheduler:
    """Expand, dedup, queue fairly, dispatch, settle — and survive.

    All methods run on the owning event loop's thread; executor lease
    work happens in worker threads via ``asyncio.to_thread`` with
    events hopped back onto the loop.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        cache: ResultCache | None,
        journal: RunJournal,
        stream: EventStream,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
        fault_spec: str | None = None,
        max_pending_per_tenant: int = DEFAULT_MAX_PENDING,
        max_pending_total: int | None = None,
        max_pending_cost: int | None = None,
        max_cache_mb: float | None = None,
        tickets: TicketStore | None = None,
        lease_timeout: float | None = None,
        heartbeat: float | None = None,
        group_cells: int = 8,
    ) -> None:
        self.cache = cache
        self.journal = journal
        self.stream = stream
        self.timeout = timeout
        self.fault_spec = fault_spec
        self.max_pending_per_tenant = max(1, max_pending_per_tenant)
        self.max_pending_total = max_pending_total
        self.max_pending_cost = max_pending_cost
        self.max_cache_mb = max_cache_mb
        self.tickets = tickets
        # Trace-group dispatch: a worker pulling a cell also steals up
        # to group_cells-1 more cells *from the same tenant's queue*
        # that share the cell's trace key, and runs the whole group on
        # one lease over one generated trace.  Stealing never crosses
        # tenants, so round-robin fairness is untouched.  1 disables.
        self.group_cells = max(1, group_cells)
        self.lease_timeout = lease_timeout
        self.leases = [
            JobLease(retries=retries, backoff=backoff,
                     timeout_factor=timeout_factor, heartbeat=heartbeat)
            for _ in range(max(1, workers))
        ]
        self.counters: Counter = Counter()
        self.closing = False
        self._inflight: dict[str, _InFlight] = {}
        self._queues: dict[str, deque[str]] = {}
        self._rr: deque[str] = deque()       # tenant rotation order
        self._work: asyncio.Condition = asyncio.Condition()
        self._tasks: list[asyncio.Task] = []
        self._watchdog_task: asyncio.Task | None = None
        self._busy = 0
        self._tickets: dict[str, Ticket] = {}    # live (unfinished) only
        # EMA of executed-cell wall time, seeding the retry_after hint
        self._avg_cell_s = 2.0
        # journal tap -> live stream: one event pathway, two sinks
        self.journal.tap = self._on_journal_event

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn one dispatch task per worker lease (+ the watchdog)."""
        for lease in self.leases:
            self._tasks.append(asyncio.create_task(self._worker(lease)))
        if self.lease_timeout is not None and self.lease_timeout > 0:
            self._watchdog_task = asyncio.create_task(self._watchdog())

    async def shutdown(self, grace: float = 10.0) -> dict:
        """Drain the farm: PR 2 interruption semantics, farm-wide.

        Queued cells settle ``"interrupted"`` immediately; running
        cells get ``grace`` seconds, then their leases are cancelled
        (worker process terminated) and they settle ``"interrupted"``
        too.  Returns ``{"completed", "interrupted"}`` counts.
        """
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            self._watchdog_task = None
        if not self.closing:
            self.closing = True
            async with self._work:
                self._work.notify_all()
            queued = [key for q in self._queues.values() for key in q]
            for q in self._queues.values():
                q.clear()
            for key in queued:
                entry = self._inflight.get(key)
                # Never settle a *running* cell here: its outcome is in
                # flight on a lease thread and will settle itself — a
                # second settle would double-count the cell (the
                # drain/lease-cancel race this guard exists for).
                if entry is not None and not entry.running:
                    self._settle(key, JobOutcome(
                        entry.job, "interrupted", error=INTERRUPTED_ERROR,
                        attempts=0,
                    ))
        if self._tasks:
            _, still_running = await asyncio.wait(self._tasks, timeout=grace)
            if still_running:
                for entry in list(self._inflight.values()):
                    if entry.lease is not None and entry.running:
                        entry.lease.cancel()
                await asyncio.wait(self._tasks, timeout=10.0)
            self._tasks = []
        for lease in self.leases:
            lease.close()
        return {
            "completed": self.counters["ok"],
            "interrupted": self.counters["interrupted"],
        }

    # -- submission ------------------------------------------------------

    async def submit(self, request: GridRequest, sub: Subscription) -> Ticket:
        """Admit one grid: dedup against cache and in-flight, queue misses.

        Raises :class:`ServerClosing` while draining,
        :class:`TenantQueueFull` when the tenant's bounded queue cannot
        take the grid's cache-missing cells, and
        :class:`ServerOverloaded` when the farm-wide admission bound
        would be exceeded (nothing is admitted in any rejection case —
        admission is all-or-nothing).
        """
        if self.closing:
            raise ServerClosing("server is shutting down")
        unique = {job.key: job for job in request.jobs(timeout=self.timeout)}
        ticket = Ticket(
            id=uuid.uuid4().hex[:8], tenant=request.tenant,
            watch=request.watch, sub=sub, jobs=unique,
        )
        # Classify without mutating shared state so the queue bounds can
        # reject the whole submission atomically.  No awaits here: the
        # classification cannot go stale under the single-threaded loop.
        shared: list[str] = []
        hits: list[tuple[str, object]] = []
        misses: list[str] = []
        for key, job in unique.items():
            if key in self._inflight:
                shared.append(key)
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                hits.append((key, cached))
            else:
                misses.append(key)
        queue = self._queues.setdefault(request.tenant, deque())
        if len(queue) + len(misses) > self.max_pending_per_tenant:
            self.counters["rejected"] += 1
            self.journal.event(
                "submit_rejected", tenant=request.tenant, ticket=ticket.id,
                reason="tenant_queue_full", queued=len(queue),
                cells=len(misses), bound=self.max_pending_per_tenant,
            )
            raise TenantQueueFull(
                f"tenant {request.tenant!r} queue is full "
                f"({len(queue)} queued, bound {self.max_pending_per_tenant})"
            )
        self._check_overload(request.tenant, ticket.id, misses, unique)
        if self.tickets is not None:
            self.tickets.save(
                ticket.id, tenant=ticket.tenant, watch=ticket.watch,
                cells=[job.identity() for job in unique.values()],
                created=ticket.created,
            )
        self._tickets[ticket.id] = ticket
        self.journal.event(
            "grid_submitted", tenant=request.tenant, ticket=ticket.id,
            cells=len(unique), executing=len(misses), cached=len(hits),
            shared=len(shared),
        )
        for key, job in unique.items():
            self.journal.event("job_submitted", tenant=request.tenant,
                               ticket=ticket.id, **job.identity())
        for key in shared:
            entry = self._inflight[key]
            entry.tickets.append(ticket)
            ticket.pending.add(key)
            ticket.shared_keys.add(key)
            ticket.counters["shared"] += 1
            self.counters["shared"] += 1
            self.journal.event(
                "job_shared", key=key, workload=unique[key].workload,
                scheme=unique[key].scheme_id, tenant=request.tenant,
                first_tenant=entry.tenant,
            )
        for key, result in hits:
            job = unique[key]
            ticket.counters["cached"] += 1
            self.counters["cache_hits"] += 1
            self.journal.event("cache_hit", key=key, workload=job.workload,
                               scheme=job.scheme_id, tenant=request.tenant)
            ticket.deliver(self._result_message(
                JobOutcome(job, "ok", result=result, cache_hit=True),
                shared=False,
            ))
        for key in misses:
            job = unique[key]
            self.journal.event("cache_miss", key=key, workload=job.workload,
                               scheme=job.scheme_id, tenant=request.tenant)
            self._inflight[key] = _InFlight(
                job=job, tenant=request.tenant, tickets=[ticket],
            )
            ticket.pending.add(key)
            queue.append(key)
        if request.tenant not in self._rr:
            self._rr.append(request.tenant)
        self.counters["submitted"] += len(unique)
        if ticket.done:
            self._finish_ticket(ticket)
        if misses:
            async with self._work:
                self._work.notify_all()
        return ticket

    def _check_overload(
        self, tenant: str, ticket_id: str, misses: list[str], unique: dict
    ) -> None:
        """Farm-wide load shedding: reject with a ``retry_after`` hint."""
        if self.max_pending_total is None and self.max_pending_cost is None:
            return
        cells, cost = self._queued_totals()
        new_cost = sum(unique[key].n_instructions for key in misses)
        over_cells = (
            self.max_pending_total is not None
            and cells + len(misses) > self.max_pending_total
        )
        over_cost = (
            self.max_pending_cost is not None
            and cost + new_cost > self.max_pending_cost
        )
        if not over_cells and not over_cost:
            return
        retry_after = self.retry_after_hint(extra_cells=len(misses))
        self.counters["rejected"] += 1
        self.counters["rejected_overload"] += 1
        self.journal.event(
            "submit_rejected", tenant=tenant, ticket=ticket_id,
            reason="overloaded", queued=cells, queued_cost=cost,
            cells=len(misses), bound=self.max_pending_total,
            cost_bound=self.max_pending_cost,
            retry_after=retry_after,
        )
        raise ServerOverloaded(
            f"farm overloaded ({cells} cells queued"
            + (f", bound {self.max_pending_total}"
               if self.max_pending_total is not None else "")
            + (f"; {cost} instructions queued, bound {self.max_pending_cost}"
               if self.max_pending_cost is not None else "")
            + f"); retry in {retry_after:.0f}s",
            retry_after=retry_after,
        )

    def _queued_totals(self) -> tuple[int, int]:
        """(queued cells, queued instruction cost) across all tenants."""
        cells = 0
        cost = 0
        for queue in self._queues.values():
            for key in queue:
                cells += 1
                entry = self._inflight.get(key)
                if entry is not None:
                    cost += entry.job.n_instructions
        return cells, cost

    def retry_after_hint(self, extra_cells: int = 0) -> float:
        """Seconds until the backlog plausibly fits the rejected grid."""
        cells, _ = self._queued_totals()
        eta = (cells + extra_cells) / max(1, len(self.leases)) \
            * self._avg_cell_s
        return round(min(MAX_RETRY_AFTER, max(MIN_RETRY_AFTER, eta)), 3)

    # -- resume / recovery ----------------------------------------------

    async def resume(
        self, ticket_id: str, sub: Subscription, watch: bool = True
    ) -> dict:
        """Re-attach a client to a ticket by id; returns the ack fields.

        Three cases, one verb: a **live** ticket gets its mailbox
        swapped to ``sub`` with every already-settled result replayed; a
        **finished** (or no-longer-live) ticket is replayed wholesale
        from the journal/cache; a finished-record ticket with cells the
        journal cannot settle (the gateway died mid-grid) is *revived*
        — its unsettled cells re-enter the queues, bypassing admission
        bounds, because recovery traffic must never be shed.

        Raises :class:`UnknownTicket` when neither live state nor a
        record exists, :class:`~repro.serve.tickets.TicketRecordError`
        for a torn record, and :class:`ServerClosing` while draining.
        """
        if self.closing:
            raise ServerClosing("server is shutting down")
        live = self._tickets.get(ticket_id)
        if live is not None:
            live.sub.close()                 # orphan the old mailbox
            live.sub = sub
            live.watch = watch
            for message in live.settled:
                sub.put(message, droppable=False)
            self.journal.event(
                "ticket_attached", ticket=ticket_id, tenant=live.tenant,
                replayed=len(live.settled), pending=len(live.pending),
            )
            return {
                "ticket": live.id, "tenant": live.tenant,
                "cells": len(live.jobs), "settled": len(live.settled),
                "pending": len(live.pending), "revived": False,
            }
        if self.tickets is None:
            raise UnknownTicket(f"unknown ticket {ticket_id!r}")
        record = self.tickets.load(ticket_id)
        if record is None:
            raise UnknownTicket(f"unknown ticket {ticket_id!r}")
        ticket = await self._revive(record, sub, watch=watch,
                                    reason="client_resume")
        return {
            "ticket": ticket.id, "tenant": ticket.tenant,
            "cells": len(ticket.jobs), "settled": len(ticket.settled),
            "pending": len(ticket.pending), "revived": True,
        }

    async def recover(self) -> dict | None:
        """Gateway crash recovery: rebuild queues from ticket records.

        Called once at server startup, before connections are accepted.
        Every unfinished record is revived headless (no client mailbox
        is pumped; a later ``resume`` re-attaches one): cells the
        journal or cache already settle are settled immediately, the
        rest re-enter the queues.  Torn records are journaled as
        ``ticket_record_corrupt`` and skipped — an unparseable record
        must not wedge startup.  Journals one ``gateway_recovered``
        event (and returns its fields) when there was anything to do.
        """
        if self.tickets is None:
            return None
        records, corrupt = self.tickets.load_all()
        for path in corrupt:
            self.journal.event("ticket_record_corrupt", path=str(path))
        unfinished = [r for r in records if not r.get("finished")]
        revived = 0
        requeued = 0
        replayed = 0
        for record in unfinished:
            try:
                ticket = await self._revive(
                    record, Subscription(), watch=False,
                    reason="gateway_recovery",
                )
            except TicketRecordError as exc:
                self.journal.event(
                    "ticket_record_corrupt",
                    path=str(self.tickets.path(record["ticket"])),
                    error=str(exc),
                )
                continue
            revived += 1
            requeued += len(ticket.pending)
            replayed += len(ticket.settled)
        if not unfinished and not corrupt:
            return None
        report = {
            "tickets": revived, "requeued": requeued,
            "replayed": replayed, "corrupt": len(corrupt),
        }
        self.journal.event("gateway_recovered", **report)
        return report

    async def _revive(
        self, record: dict, sub: Subscription, watch: bool, reason: str
    ) -> Ticket:
        """Rebuild one ticket from its record + the journal's history.

        Settled cells (latest ``job_finished`` per key, with
        ``interrupted`` treated as *unsettled* — interruption is a
        shutdown artifact, not a verdict) are replayed onto ``sub``;
        the cache covers ok-cells whose journal line lost its payload.
        Unsettled cells re-enter the farm, joining in-flight duplicates
        where they exist and **bypassing all admission bounds** —
        resuming previously-admitted work is not new load.
        """
        jobs = self.tickets.jobs(record) if self.tickets is not None \
            else {}
        ticket = Ticket(
            id=record["ticket"], tenant=record["tenant"], watch=watch,
            sub=sub, jobs=jobs, created=record.get("created", time.time()),
        )
        finished = self._journal_settlements()
        misses: list[str] = []
        for key, job in jobs.items():
            if key in self._inflight:        # join a duplicate in flight
                entry = self._inflight[key]
                entry.tickets.append(ticket)
                ticket.pending.add(key)
                ticket.shared_keys.add(key)
                ticket.counters["shared"] += 1
                self.counters["shared"] += 1
                continue
            message = self._replay_message(job, finished.get(key))
            if message is not None:
                status = message["status"]
                ticket.counters["cached" if status == "ok" else "failed"] \
                    += 1
                self.journal.event(
                    "job_resumed", key=key, workload=job.workload,
                    scheme=job.scheme_id, status=status, ticket=ticket.id,
                )
                ticket.deliver(message)
                continue
            ticket.pending.add(key)
            misses.append(key)
        queue = self._queues.setdefault(ticket.tenant, deque())
        for key in misses:
            job = jobs[key]
            self._inflight[key] = _InFlight(
                job=job, tenant=ticket.tenant, tickets=[ticket],
            )
            queue.append(key)
            self.journal.event("job_requeued", key=key,
                               workload=job.workload, scheme=job.scheme_id,
                               ticket=ticket.id)
        if ticket.tenant not in self._rr:
            self._rr.append(ticket.tenant)
        self.journal.event(
            "ticket_revived", ticket=ticket.id, tenant=ticket.tenant,
            reason=reason, cells=len(jobs), replayed=len(ticket.settled),
            requeued=len(misses),
            shared=ticket.counters["shared"],
        )
        if ticket.done:
            self._tickets[ticket.id] = ticket    # _finish_ticket pops it
            self._finish_ticket(ticket)
        else:
            self._tickets[ticket.id] = ticket
            if misses:
                async with self._work:
                    self._work.notify_all()
        return ticket

    def _journal_settlements(self) -> dict[str, dict]:
        """Latest ``job_finished`` event per key, across *all* runs.

        Reads the on-disk journal (which accumulates every run against
        this cache root) leniently — a torn tail or a corrupt line
        inside a crashed gateway's journal loses that line, not the
        recovery.  Falls back to this run's in-memory events when the
        journal has no file.
        """
        if self.journal.path is not None and self.journal.path.exists():
            events = read_journal(self.journal.path, strict=False)
        else:
            events = list(self.journal.events)
        last: dict[str, dict] = {}
        for event in events:
            if event.get("event") == "job_finished" and event.get("key"):
                last[event["key"]] = event
        return last

    def _replay_message(self, job: Job, event: dict | None) -> dict | None:
        """A result line reconstructed from history, or None = unsettled."""
        payload = None
        status = event.get("status") if event is not None else None
        error = event.get("error") if event is not None else None
        attempts = int(event.get("attempts") or 0) if event is not None else 0
        duration = float(event.get("duration") or 0.0) if event is not None \
            else 0.0
        if status == "interrupted":
            # a shutdown artifact, not a verdict: run the cell again
            status = None
        if status == "ok":
            payload = event.get("result")
            if not isinstance(payload, dict):
                payload = None
        if payload is None and self.cache is not None:
            cached = self.cache.get(job.key)
            if cached is not None:
                payload = cached.to_dict()
                status = "ok"
                attempts = attempts or 0
        if status is None or (status == "ok" and payload is None):
            return None
        message = {
            "type": "result",
            "workload": job.workload,
            "scheme": job.scheme_id,
            "key": job.key,
            "status": status,
            "cache_hit": True,
            "shared": False,
            "resumed": True,
            "attempts": attempts,
            "duration": round(duration, 6),
            "error": error,
        }
        if status == "ok":
            message["result"] = payload
        return message

    # -- dispatch --------------------------------------------------------

    async def _worker(self, lease: JobLease) -> None:
        """One worker slot: pull fairly, execute on the lease, settle.

        When the pulled cell shares its trace key with other cells of
        the *same tenant's* queue, up to ``group_cells`` of them are
        dispatched together onto the lease: its single worker process
        persists across the cells, so it acquires the trace once (trace
        cache or build) and every later cell hits the worker memo,
        simulating every scheme against one trace.
        Cells still run (and settle) one at a time, so per-cell events,
        retries and watchdog attribution are identical to solo dispatch.
        """
        loop = asyncio.get_running_loop()
        while True:
            key = await self._next_key()
            if key is None:
                return
            entry = self._inflight.get(key)
            if entry is None:          # settled while queued (shutdown race)
                continue
            group = [(key, entry)]
            if self.group_cells > 1 and not entry.job.trace_dir:
                group.extend(self._steal_group(entry))
            for _, member in group:
                member.running = True
                member.started = False
                member.lease = lease
                member.attempt_started = time.monotonic()
            self._busy += 1
            if len(group) > 1:
                self.counters["groups_dispatched"] += 1
                self.journal.event(
                    "group_dispatched", key=key,
                    workload=entry.job.workload,
                    trace_key=trace_cache_key(
                        entry.job.workload, entry.job.n_instructions,
                        entry.job.salt),
                    cells=len(group),
                    schemes=[m.job.scheme_id for _, m in group],
                )

            def on_event(kind: str, job: Job, fields: dict) -> None:
                # lease thread -> loop thread; journal+stream stay
                # single-threaded
                loop.call_soon_threadsafe(self._job_event, kind, job.key,
                                          fields)

            any_ok = False
            try:
                for cell_key, member in group:
                    outcome = await asyncio.to_thread(
                        lease.run_one, member.job, self._cache_dir(),
                        on_event, self.fault_spec,
                    )
                    # settle as each cell lands: subscribers see results
                    # stream in, and a settled cell leaves _inflight so
                    # the watchdog only ever sees the cell actually on
                    # the worker
                    self._settle(cell_key, outcome)
                    any_ok = any_ok or outcome.ok
            finally:
                self._busy -= 1
            if any_ok and self.max_cache_mb is not None:
                await self._enforce_cache_bound()

    def _steal_group(self, entry: _InFlight) -> list[tuple[str, _InFlight]]:
        """Pull same-trace cells off ``entry``'s tenant queue (cap-1).

        Only the owning tenant's queue is touched — group formation
        must not let one tenant's sweep vacuum up a neighbour's cells —
        and observability cells (``trace_dir``) are never grouped.
        """
        queue = self._queues.get(entry.tenant)
        if not queue:
            return []
        tkey = trace_cache_key(entry.job.workload, entry.job.n_instructions,
                               entry.job.salt)
        stolen: list[tuple[str, _InFlight]] = []
        for cand in list(queue):
            if len(stolen) >= self.group_cells - 1:
                break
            cand_entry = self._inflight.get(cand)
            if cand_entry is None or cand_entry.job.trace_dir:
                continue
            job = cand_entry.job
            if trace_cache_key(job.workload, job.n_instructions,
                               job.salt) == tkey:
                queue.remove(cand)
                stolen.append((cand, cand_entry))
        return stolen

    async def _next_key(self) -> str | None:
        """The next job key, round-robin across tenants; None to exit."""
        async with self._work:
            while True:
                for _ in range(len(self._rr)):
                    tenant = self._rr[0]
                    self._rr.rotate(-1)
                    queue = self._queues.get(tenant)
                    if queue:
                        return queue.popleft()
                if self.closing:
                    return None
                await self._work.wait()

    def _cache_dir(self) -> str | None:
        return str(self.cache.root) if self.cache is not None else None

    def _job_event(self, kind: str, key: str, fields: dict) -> None:
        entry = self._inflight.get(key)
        if entry is None:
            return
        if kind == "job_started":
            # each (re)attempt re-arms the watchdog deadline
            entry.started = True
            entry.attempt_started = time.monotonic()
        self.journal.event(kind, key=key, workload=entry.job.workload,
                           scheme=entry.job.scheme_id, **fields)

    # -- lease watchdog --------------------------------------------------

    async def _watchdog(self) -> None:
        """Reap worker slots whose running attempt outlived the lease.

        A reaped lease is *not* cancelled: killing the worker process
        surfaces in :meth:`JobLease.run_one` as a dead worker, which
        retries on a fresh pool (with backoff) or settles ``"error"``
        once attempts are exhausted — the cell pays, the slot survives.

        Only cells whose attempt has actually *started* on the worker
        are candidates: a cell waiting its turn inside a trace group is
        running in the dispatch sense but cannot be the hang, and its
        own clock re-arms when its ``job_started`` fires.
        """
        assert self.lease_timeout is not None
        interval = min(1.0, max(0.05, self.lease_timeout / 4))
        while not self.closing:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for key, entry in list(self._inflight.items()):
                bound = self.lease_timeout
                if (
                    entry.running
                    and entry.started
                    and entry.lease is not None
                    and entry.attempt_started is not None
                    and now - entry.attempt_started > bound
                ):
                    silent = now - entry.attempt_started
                    entry.attempt_started = now    # re-arm, no double reap
                    self.counters["leases_reaped"] += 1
                    self.journal.event(
                        "lease_reaped", key=key,
                        workload=entry.job.workload,
                        scheme=entry.job.scheme_id,
                        silent_s=round(silent, 3),
                        bound_s=bound,
                    )
                    entry.lease.reap()

    # -- settlement ------------------------------------------------------

    def _settle(self, key: str, outcome: JobOutcome) -> None:
        """Resolve one unique cell for every ticket subscribed to it."""
        entry = self._inflight.pop(key, None)
        if entry is None:
            return
        job = entry.job
        fields = dict(
            key=key, workload=job.workload, scheme=job.scheme_id,
            status=outcome.status, duration=round(outcome.duration, 6),
            attempts=outcome.attempts, error=outcome.error,
            tenants=sorted({t.tenant for t in entry.tickets}),
        )
        if outcome.ok:
            assert outcome.result is not None
            # journaled payload keeps the farm journal resume-compatible
            fields["result"] = outcome.result.to_dict()
            if outcome.attempts > 0 and self.cache is not None:
                self.cache.put(key, outcome.result, job.identity())
        self.journal.event("job_finished", **fields)
        self.counters["executed"] += 1 if outcome.attempts else 0
        self.counters[outcome.status if not outcome.ok else "ok"] += 1
        if outcome.attempts and outcome.duration > 0:
            self._avg_cell_s = (
                0.8 * self._avg_cell_s + 0.2 * outcome.duration
            )
        for ticket in entry.tickets:
            shared = key in ticket.shared_keys
            if outcome.attempts and not shared:
                ticket.counters["executed"] += 1
            if not outcome.ok:
                ticket.counters[
                    "interrupted" if outcome.status == "interrupted"
                    else "failed"
                ] += 1
            ticket.deliver(self._result_message(outcome, shared=shared))
            ticket.pending.discard(key)
            if ticket.done:
                self._finish_ticket(ticket)

    def _finish_ticket(self, ticket: Ticket) -> None:
        self._tickets.pop(ticket.id, None)
        if self.tickets is not None:
            self.tickets.save(
                ticket.id, tenant=ticket.tenant, watch=ticket.watch,
                cells=[job.identity() for job in ticket.jobs.values()],
                finished=True, summary=ticket.summary(),
                created=ticket.created,
            )
        self.journal.event("grid_finished", tenant=ticket.tenant,
                           ticket=ticket.id, **ticket.summary())
        ticket.sub.put(
            {"type": "done", "ticket": ticket.id,
             "summary": ticket.summary()},
            droppable=False,
        )
        ticket.sub.close()

    @staticmethod
    def _result_message(outcome: JobOutcome, shared: bool) -> dict:
        job = outcome.job
        message = {
            "type": "result",
            "workload": job.workload,
            "scheme": job.scheme_id,
            "key": job.key,
            "status": outcome.status,
            "cache_hit": outcome.cache_hit,
            "shared": shared,
            "resumed": outcome.resumed,
            "attempts": outcome.attempts,
            "duration": round(outcome.duration, 6),
            "error": outcome.error,
        }
        if outcome.ok:
            assert outcome.result is not None
            message["result"] = outcome.result.to_dict()
        return message

    # -- event multiplexing ---------------------------------------------

    def _on_journal_event(self, entry: dict) -> None:
        """Journal tap: broadcast + route to the key's watching tickets."""
        self.stream.publish(entry)
        key = entry.get("key")
        if not key:
            return
        inflight = self._inflight.get(key)
        if inflight is None:
            return
        for ticket in inflight.tickets:
            if ticket.watch:
                ticket.sub.put({"type": "event", "event": entry},
                               droppable=True)

    # -- cache lifecycle -------------------------------------------------

    async def _enforce_cache_bound(self) -> None:
        """Size-bound the shared store (LRU) after a fresh result lands."""
        if self.cache is None or self.max_cache_mb is None:
            return
        report = await asyncio.to_thread(
            self.cache.gc, None, self.max_cache_mb
        )
        if report["removed"]:
            self.journal.event("cache_gc", **report)

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """Queue depths, worker occupancy, load state, lifetime counters."""
        cells, cost = self._queued_totals()
        overloaded = (
            self.max_pending_total is not None
            and cells >= self.max_pending_total
        ) or (
            self.max_pending_cost is not None
            and cost >= self.max_pending_cost
        )
        return {
            "workers": len(self.leases),
            "busy": self._busy,
            "inflight": len(self._inflight),
            "queued": cells,
            "tenants": {
                tenant: len(queue)
                for tenant, queue in self._queues.items() if queue
            },
            "tickets": len(self._tickets),
            "overload": {
                "overloaded": overloaded,
                "queued": cells,
                "queued_cost": cost,
                "bound": self.max_pending_total,
                "cost_bound": self.max_pending_cost,
                "rejected": self.counters["rejected_overload"],
                "retry_after": self.retry_after_hint() if overloaded
                else None,
            },
            "lease_timeout": self.lease_timeout,
            "group_cells": self.group_cells,
            "counters": dict(self.counters),
            "closing": self.closing,
        }
