"""Seeded workload plans: which suite workloads, how long, how parallel.

The benchmark decides everything here from ``--seed``; the simulator
only ever receives workload names, a trace length and a job count,
through its stock public API.  The same (workload, seed) pair always
yields the same plan, so a claim can be rechecked on a seed the change
under test never saw.
"""

from __future__ import annotations

import random

# Sizes are chosen so one iteration takes roughly 5-9 s on a 2-core
# host, which leaves room for several iterations (and, on traced runs,
# at least one untraced plus one traced iteration) inside a run.  Samples are
# stratified by kernel family, not by suite group: the four groups cost
# the same on average (2.99-3.18 s per workload for all six schemes at
# 16k instructions) while families range from 1.90 to 3.63 s, so only
# family strata keep the cost of a drawn sample steady from seed to seed.
WORKLOADS: dict[str, dict] = {
    # Figs 6, 8 and 4 through one SuiteRunner, serial: the paper
    # pipeline users run, with in-process analysis (Fig 4 on
    # runner.traces) and result-cache reuse (Fig 8 re-reads Fig 6).
    "paper-figs": {"kind": "figures", "sample": 12, "n_instructions": 3_000,
                   "jobs": 1},
    # Every scheme x half the suite, very short traces, 2 workers: the
    # most cells, so per-cell costs (scheme build, dispatch, IPC, cache
    # puts, journal) weigh most.  Half the suite keeps one iteration
    # short enough that a run holds several.
    "sweep-short": {"kind": "sweep", "sample": 39, "n_instructions": 1_000,
                    "jobs": 2},
}


def stratified_sample(
    strata: dict[str, list[str]], k: int, rng: random.Random
) -> list[str]:
    """Draw ``k`` names across ``strata`` in proportion to their sizes.

    Quotas use the largest-remainder method (ties go to the earlier
    stratum), so the sample always has exactly ``k`` names and no
    stratum gets more than one name above or below its share.
    """
    total = sum(len(names) for names in strata.values())
    if not 0 < k <= total:
        raise ValueError(f"cannot sample {k} of {total} workloads")
    quotas = {g: k * len(names) / total for g, names in strata.items()}
    counts = {g: int(q) for g, q in quotas.items()}
    order = sorted(strata, key=lambda g: counts[g] - quotas[g])
    for g in order[: k - sum(counts.values())]:
        counts[g] += 1
    picked: list[str] = []
    for g, names in strata.items():
        picked.extend(rng.sample(sorted(names), counts[g]))
    rng.shuffle(picked)
    return picked


def make_plan(
    workload: str,
    seed: int,
    strata: dict[str, list[str]],
    schemes: list[str],
) -> dict:
    """The plan one benchmark workload runs for ``seed``.

    ``strata`` maps each kernel family of the paper's suite to its
    workload names and ``schemes`` lists every registered scheme id;
    both come from the program's registry, so a workload or scheme
    added there is picked up without editing the benchmark.
    """
    try:
        spec = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown benchmark workload: {workload!r}") from None
    rng = random.Random(f"{workload}:{seed}")
    plan = {
        "workload": workload,
        "seed": seed,
        "kind": spec["kind"],
        "names": stratified_sample(strata, spec["sample"], rng),
        "n_instructions": spec["n_instructions"],
        "jobs": spec["jobs"],
    }
    if spec["kind"] == "sweep":
        order = sorted(schemes)
        rng.shuffle(order)
        plan["schemes"] = order
    return plan
