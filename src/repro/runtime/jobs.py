"""Jobs — the schedulable unit of simulation.

A :class:`Job` names one cell of a sweep grid: (workload,
n_instructions, scheme, recovery).  Its identity is a deterministic
content hash over those fields plus a *code version salt* (a digest of
every ``repro`` source file), so results cached on disk are invalidated
automatically whenever the simulator's code changes, and two processes
— or two machines — computing the key for the same cell agree exactly.

Jobs are plain frozen dataclasses of primitives: picklable for
:class:`~repro.runtime.executor.ParallelExecutor` workers, and JSON-safe
for the run journal and cache payloads.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
from dataclasses import asdict, dataclass, fields as dataclass_fields
from pathlib import Path

from repro import faults
from repro.pipeline import RecoveryMode, SimResult, simulate
from repro.runtime.cache import ResultCache
from repro.runtime.registry import BASELINE_ID, get_scheme
# build_workload stays importable from here: profilers wrap this
# module's generator entry points by name.
from repro.workloads import build_workload, build_workload_columnar  # noqa: F401

CODE_SALT_ENV = "REPRO_CODE_SALT"


@functools.lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of the ``repro`` package sources (or ``$REPRO_CODE_SALT``).

    Hashing the source tree rather than a version string means *any*
    code change — predictors, pipeline, workload generators — retires
    every cached result produced by the old code.  The environment
    override exists for tests and for deployments that prefer an
    explicit release tag.
    """
    env = os.environ.get(CODE_SALT_ENV)
    if env:
        return env
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def trace_cache_key(workload: str, n_instructions: int, salt: str | None = None) -> str:
    """Content key for a generated trace (workload generators are seeded)."""
    salt = salt if salt is not None else code_version_salt()
    blob = json.dumps(
        {"kind": "trace", "workload": workload, "n": n_instructions, "salt": salt},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Job:
    """One simulation cell, identified by content.

    ``timeout`` (seconds) bounds execution but is deliberately *not*
    part of the key — the same cell simulated with a different timeout
    is still the same result.
    """

    workload: str
    n_instructions: int
    scheme_id: str
    scheme_config: str
    scheme_module: str
    recovery: str
    salt: str
    timeout: float | None = None
    # Directory for observability artifacts (Chrome traces, flight
    # dumps).  Like ``timeout`` it is not part of the key: tracing is
    # bit-identical to not tracing, so the result is the same cell.
    trace_dir: str | None = None
    @property
    def key(self) -> str:
        """Deterministic content hash naming this job's result."""
        blob = json.dumps(
            {
                "kind": "simulate",
                "workload": self.workload,
                "n_instructions": self.n_instructions,
                "scheme_id": self.scheme_id,
                "scheme_config": self.scheme_config,
                "recovery": self.recovery,
                "salt": self.salt,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def identity(self) -> dict:
        """JSON-safe job fields for journal lines and cache payloads."""
        fields = asdict(self)
        fields["key"] = self.key
        return fields


def job_from_identity(fields: dict) -> Job:
    """Rebuild a :class:`Job` from a persisted :meth:`Job.identity` dict.

    The stored ``salt`` is used verbatim — *not* recomputed from the
    current source tree — so a job journaled by an earlier process
    hashes to the same key when it is read back.  When the record also
    carries the original ``key`` it is cross-checked; a mismatch means
    the record was hand-edited or torn and raises :class:`ValueError`.
    """
    known = {f.name for f in dataclass_fields(Job)}
    try:
        job = Job(**{k: v for k, v in fields.items() if k in known})
    except TypeError as exc:
        raise ValueError(f"incomplete job identity: {exc}") from None
    expected = fields.get("key")
    if expected is not None and job.key != expected:
        raise ValueError(
            f"job identity key mismatch: recorded {expected}, "
            f"recomputed {job.key}"
        )
    return job


def make_job(
    workload: str,
    n_instructions: int,
    scheme_id: str = BASELINE_ID,
    recovery: RecoveryMode = RecoveryMode.FLUSH,
    timeout: float | None = None,
    trace_dir: str | None = None,
) -> Job:
    """Build a job for a registered scheme id, filling hash metadata."""
    spec = get_scheme(scheme_id)
    return Job(
        workload=workload,
        n_instructions=n_instructions,
        scheme_id=spec.scheme_id,
        scheme_config=spec.config_key,
        scheme_module=spec.module,
        recovery=recovery.value if isinstance(recovery, RecoveryMode) else str(recovery),
        salt=code_version_salt(),
        timeout=timeout,
        trace_dir=trace_dir,
    )


# Worker-resident trace memo, capacity one.  A retried job lands on a
# worker that (under serial execution, or a pool whose process survived)
# already generated its trace; re-deriving it is the single largest cost
# of a retry, so the last trace is kept and reused when the next job
# names the same content.  Capacity is deliberately 1: the memo exists
# for retries, not as a second trace cache.
_TRACE_MEMO: dict = {}


def _acquire_trace(job: Job, cache: ResultCache | None, attempt: int):
    """Obtain the job's trace by the cheapest live route.

    Order: worker memo → shared trace cache → generate.  Returns
    ``(trace, info)`` where ``info`` describes provenance for the
    result envelope.
    """
    key = trace_cache_key(job.workload, job.n_instructions, job.salt)
    entry = _TRACE_MEMO.get(key)
    if entry is not None:
        info = {"trace_source": "memo"}
        if not entry["announced"]:
            info["trace_built_attempt"] = entry["built_attempt"]
            info["entry"] = entry
        return entry["trace"], info

    trace = cache.get_trace_columnar(key) if cache is not None else None
    built = trace is None
    if built:
        trace = build_workload_columnar(job.workload, job.n_instructions)
        if cache is not None:
            cache.put_trace(key, trace)

    entry = {"trace": trace, "built_attempt": attempt if built else None, "announced": False}
    _TRACE_MEMO.clear()
    _TRACE_MEMO[key] = entry
    info = {"trace_source": "built" if built else "cache"}
    if built:
        info["trace_built_attempt"] = attempt
        info["entry"] = entry
    return trace, info


def _announce(info: dict) -> None:
    """Mark the memo entry's build as reported, exactly once.

    Called only after a *successful* simulation: a worker that built a
    trace and then crashed should let the retry report the (re)build it
    actually observes, not a phantom from the dead attempt.
    """
    entry = info.pop("entry", None)
    if entry is not None:
        entry["announced"] = True


def execute_job_info(
    job: Job,
    cache_dir: str | None = None,
    attempt: int = 1,
    fault_spec: str | None = None,
) -> tuple[dict, dict]:
    """Like :func:`execute_job` but also returns trace provenance.

    The second element is ``{"trace_source": ..., "trace_built_attempt"?}``
    — which route produced the trace (``memo``/``cache``/``built``)
    and, the first time a worker-built trace carries a successful
    result, the attempt number that generated it.  Faults are injected
    *after* trace acquisition: the injector models a failing
    simulation, and a real mid-simulation death happens with the trace
    already generated — which is exactly what makes the memo worth
    having on the retry.
    """
    cache = ResultCache(cache_dir) if cache_dir else None
    trace, info = _acquire_trace(job, cache, attempt)
    plan = faults.active_plan(fault_spec)
    if plan is not None:
        faults.inject(job.workload, job.scheme_id, attempt, job.key, plan)
    if job.scheme_module:
        try:
            importlib.import_module(job.scheme_module)
        except ImportError:
            pass  # fall through: under fork the registry is inherited
    scheme = get_scheme(job.scheme_id).build()
    recovery = RecoveryMode(job.recovery)
    if job.trace_dir:
        # Observability path: full tracer stack, Chrome trace written
        # beside the flight dump.  Results stay bit-identical to the
        # untraced fast path (golden-verified), just with intervals.
        from repro.observe import run_traced

        out_dir = Path(job.trace_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"{job.workload}-{job.scheme_id}.trace.json"
        result = run_traced(trace, scheme=scheme, recovery=recovery,
                            out=out).result
    else:
        result = simulate(trace, scheme=scheme, recovery=recovery)
    _announce(info)
    return result.to_dict(), info


def execute_job(
    job: Job,
    cache_dir: str | None = None,
    attempt: int = 1,
    fault_spec: str | None = None,
) -> dict:
    """Run one job to completion; returns ``SimResult.to_dict()``.

    This is the worker-side entry point.  The scheme's defining module
    is imported so spawned workers (which do not inherit the parent's
    registry) see the same registrations; under ``fork`` the import is
    a cached no-op.  ``cache_dir`` enables the shared trace cache only
    — result caching is the parent's responsibility, so a cache hit
    never even reaches a worker.

    ``attempt`` and ``fault_spec`` feed :mod:`repro.faults`: when a
    fault plan (explicit spec or ``$REPRO_FAULT_SPEC``) matches this
    (job, attempt), the injector acts it out *here*, in the worker —
    crashing, hanging, raising or stalling exactly where a real
    misbehaving simulation would.
    """
    payload, _ = execute_job_info(job, cache_dir, attempt, fault_spec)
    return payload


def result_from_payload(payload: dict) -> SimResult:
    """Parent-side decode of a worker's :func:`execute_job` payload."""
    return SimResult.from_dict(payload)
