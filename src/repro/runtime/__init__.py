"""repro.runtime — parallel experiment orchestration.

Turns simulation into schedulable :class:`Job` objects keyed by a
deterministic content hash, executes them through a serial or
process-pool executor with per-job timeouts / bounded retries / crash
isolation, caches results and traces on disk so unchanged sweep cells
return instantly, and records every step in a JSONL run journal.

Typical use::

    from repro.runtime import Runtime

    runtime = Runtime(jobs=4)
    grid = runtime.run_grid(["baseline", "dlvp"], ["gzip", "nat"], 8_000)
    print(grid.speedups("dlvp"))
    print(runtime.journal.format_summary())
"""

from repro.runtime.api import GridResult, RunInterrupted, Runtime
from repro.runtime.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    ResultCache,
    default_cache_dir,
    result_checksum,
)
from repro.runtime.executor import (
    INTERRUPTED_ERROR,
    JobLease,
    JobOutcome,
    JobTimeoutError,
    ParallelExecutor,
    SerialExecutor,
)
from repro.runtime.jobs import (
    CODE_SALT_ENV,
    Job,
    code_version_salt,
    execute_job,
    execute_job_info,
    job_from_identity,
    make_job,
    trace_cache_key,
)
from repro.runtime.journal import RunJournal, completed_results, read_journal
from repro.runtime.registry import (
    BASELINE_ID,
    SchemeSpec,
    config_key_of,
    get_scheme,
    register_scheme,
    scheme_ids,
)

__all__ = [
    "Runtime",
    "GridResult",
    "RunInterrupted",
    "INTERRUPTED_ERROR",
    "Job",
    "JobLease",
    "JobOutcome",
    "JobTimeoutError",
    "make_job",
    "job_from_identity",
    "execute_job",
    "execute_job_info",
    "code_version_salt",
    "trace_cache_key",
    "ResultCache",
    "default_cache_dir",
    "RunJournal",
    "read_journal",
    "completed_results",
    "result_checksum",
    "CACHE_SCHEMA_VERSION",
    "SerialExecutor",
    "ParallelExecutor",
    "SchemeSpec",
    "register_scheme",
    "get_scheme",
    "scheme_ids",
    "config_key_of",
    "BASELINE_ID",
    "CACHE_DIR_ENV",
    "CODE_SALT_ENV",
]
