"""Value-prediction schemes as the pipeline sees them.

A scheme is the glue between the timing model and the predictors: the
pipeline asks the scheme for a prediction at fetch (``flat_fetch``),
decides admission (PVT capacity, recovery mode), and reports back at
execute (``flat_execute``) so the scheme can train.  Both calls take
raw trace-column scalars; the :class:`Scheme` docstring spells out the
one protocol every run, traced or not, drives.  Three schemes
reproduce the paper's three value predictors — DLVP (PAP-based), the
CAP variant of DLVP, and VTAGE — plus the DLVP+VTAGE tournament of
Figure 8.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.branch import BranchUnit
from repro.core import DlvpConfig, DlvpEngine, ValuePredictionEngine
from repro.isa import OpClass
from repro.isa.fetch import FETCH_GROUP_BYTES
from repro.memory import MemoryHierarchy, MemoryImage
from repro.predictors.cap import CapConfig, CapPredictor
from repro.pipeline import batch as _key_batch
from repro.pipeline.stats import register_stats_type
from repro.predictors.tournament import ChooserStats, TournamentChooser
from repro.predictors.vtage import VtageConfig, VtagePredictor
from repro.trace.columnar import F_VECTOR

_MASK64 = (1 << 64) - 1
_LOAD = int(OpClass.LOAD)

# ChooserStats lives in repro.predictors (import-order-safe to register here;
# predictors cannot depend on the pipeline package).
register_stats_type(ChooserStats)


class Scheme(abc.ABC):
    """Base class for value-prediction schemes driven by the pipeline.

    The protocol is two calls per predictable instruction, made by the
    simulate() loop with raw trace-column scalars.  ``values`` in the
    arguments are the architectural (trace) values.  :meth:`flat_fetch`
    returns ``(values, correct, handle, registers)`` or None: the
    predicted values (None: no prediction), their trace-known
    correctness, scheme-private state for :meth:`flat_execute`, and
    the PVT entries the prediction would need.  :meth:`flat_execute`
    returns ``(value_predicted, value_correct)``.  Both results are
    plain tuples: one is produced per predicted instruction.
    :meth:`flat_prepare` runs once per simulation, after :meth:`bind`
    and :meth:`attach_tracer`, with the full ColumnarTrace: the hook
    for chunk-level batched precomputation (see
    :mod:`repro.pipeline.batch`) and per-run fused closures.
    """

    name: str = "scheme"

    # True when flat_fetch() is a guaranteed no-op for non-load
    # instructions (no prediction AND no side effects).  The timing
    # model uses it to skip the call entirely on the hot path; schemes
    # that predict non-loads (e.g. VTAGE with loads_only=False) must
    # leave it False.
    fetch_loads_only: bool = False

    def __init__(self, pvt_entries: int = 32) -> None:
        self.vpe = ValuePredictionEngine(pvt_entries=pvt_entries)

    def bind(
        self,
        hierarchy: MemoryHierarchy,
        image: MemoryImage,
        branch_unit: BranchUnit,
    ) -> None:
        """Attach per-run substrate objects before simulation starts."""
        self.hierarchy = hierarchy
        self.image = image
        self.branch_unit = branch_unit

    def attach_tracer(self, tracer) -> None:
        """Propagate a tracer to this scheme's components (after bind).

        The base implementation covers the VPE/PVT every scheme owns;
        schemes with more machinery (DLVP's engine, the tournament's
        sub-schemes) extend it.
        """
        self.vpe.attach_tracer(tracer)

    def flat_prepare(self, trace) -> None:
        """Per-run hook before the simulate() loop starts (no-op default)."""

    @abc.abstractmethod
    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        """Attempt a prediction as the instruction is fetched.

        ``load_slot`` is 0/1 for the first two loads of a fetch group
        and None beyond that (the per-cycle prediction limit).
        """

    @abc.abstractmethod
    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        """Validate and train once the instruction executes.

        ``predicted`` is what :meth:`flat_fetch` returned; ``way`` is
        the L1 way the block occupies after the demand access (None for
        non-memory instructions).
        """

    def on_value_flush(self) -> None:
        """A value misprediction flushed the pipeline."""
        self.vpe.flush()

    def on_branch_flush(self) -> None:
        """A branch misprediction flushed the pipeline front-end."""

    def way_predicted_probes(self) -> int:
        """L1 probes issued as single-way (way-predicted) reads.

        Feeds :attr:`EnergyEvents.l1d_probes_way_predicted`; schemes
        without a probing engine report zero.
        """
        return 0

    @abc.abstractmethod
    def result_stats(self) -> object:
        """Scheme-shaped statistics for :class:`SimResult`."""

    @abc.abstractmethod
    def predictor_storage_bits(self) -> int:
        """Prediction-table budget (energy model input)."""

    @abc.abstractmethod
    def access_counts(self) -> tuple[int, int]:
        """Approximate (reads, writes) of the prediction tables."""


class DlvpScheme(Scheme):
    """DLVP proper (PAP), or the paper's "CAP" comparison point when
    constructed with ``use_cap=True``.

    The class-level :meth:`flat_fetch`/:meth:`flat_execute` drive the
    engine's reference methods, so every PAQ, LSCD, APT and probe hook
    fires; traced runs use them.  Untraced runs get the engine's fused
    per-run closures instead (:meth:`flat_prepare`), which carry no
    hook sites.  The golden suite and the traced-run bit-identity test
    pin the two to the same outcomes.
    """

    fetch_loads_only = True

    def __init__(
        self,
        config: DlvpConfig | None = None,
        use_cap: bool = False,
        cap_config: CapConfig | None = None,
    ) -> None:
        super().__init__(pvt_entries=(config or DlvpConfig()).pvt_entries)
        self.config = config or DlvpConfig()
        self.use_cap = use_cap
        self.cap_config = cap_config
        self.name = "cap" if use_cap else "dlvp"
        self.engine: DlvpEngine | None = None

    def bind(self, hierarchy, image, branch_unit) -> None:
        super().bind(hierarchy, image, branch_unit)
        address_predictor = (
            CapPredictor(self.cap_config or CapConfig(confidence_threshold=24))
            if self.use_cap
            else None
        )
        self.engine = DlvpEngine(
            config=self.config,
            hierarchy=hierarchy,
            image=image,
            address_predictor=address_predictor,
        )
        # Drop fused closures from any previous run: they captured the
        # previous engine.  flat_prepare() rebuilds them for this one.
        self.__dict__.pop("flat_fetch", None)
        self.__dict__.pop("flat_execute", None)

    def flat_prepare(self, trace) -> None:
        """Precompute batched APT keys and build the fused fast path.

        Only for an untraced engine: with a tracer attached, the
        class-level reference transport stays in place so the
        component hooks fire.  Without numpy (or for CAP, or APT
        histories wider than the 64-bit batch fold), the engine falls
        back to live incremental folds — same bits, pinned by the
        golden suite.  Either way the per-run ``flat_fetch``/
        ``flat_execute`` are instance closures with every hot attribute
        captured as a cell (see :meth:`DlvpEngine.make_flat_fetch`).
        """
        engine = self.engine
        engine.bind_key_batch(None)
        if engine._tracer is not None:
            return
        if engine._is_pap and _key_batch.np is not None:
            predictor = engine.predictor
            history_bits = predictor.config.history_bits
            if history_bits <= 64:   # batch folds pack windows into uint64
                engine.bind_key_batch(
                    _key_batch.PapKeyBatch(
                        trace,
                        load_op=_LOAD,
                        history_bits=history_bits,
                        index_bits=predictor._index_bits,
                        tag_bits=predictor.config.tag_bits,
                        tag_shift=predictor._tag_shift,
                        fetch_group_bytes=FETCH_GROUP_BYTES,
                    )
                )
        self.flat_fetch = engine.make_flat_fetch()
        self.flat_execute = engine.make_flat_execute()

    def attach_tracer(self, tracer) -> None:
        super().attach_tracer(tracer)
        if self.engine is not None:
            self.engine.attach_tracer(tracer)

    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        if op != _LOAD:
            return None
        engine = self.engine
        if load_slot is None:
            engine.on_load_fetch_unpredicted(pc)
            return None
        handle = engine.on_load_fetch(pc, fetch_cycle, load_slot)
        engine.probe(handle, probe_cycle)
        predicted = engine.predicted_values(handle, mem_size, ndests)
        mask = (1 << (8 * mem_size)) - 1
        correct = predicted is not None and predicted == tuple(
            v & mask for v in values
        )
        return (predicted, correct, handle, ndests)

    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        outcome = self.engine.on_load_execute(
            handle, pc, mem_addr, mem_size, values, way, value_predicted,
            predicted if value_predicted else None,
        )
        return outcome.value_predicted, outcome.value_correct

    def on_value_flush(self) -> None:
        super().on_value_flush()
        assert self.engine is not None
        self.engine.paq.flush()

    def on_branch_flush(self) -> None:
        assert self.engine is not None
        self.engine.paq.flush()

    def way_predicted_probes(self) -> int:
        assert self.engine is not None
        return self.engine.stats.probes_way_predicted

    def result_stats(self):
        assert self.engine is not None
        # The PAQ keeps its own flush counter; mirror it into the
        # result-facing stats so cached/serialized runs carry it.
        self.engine.stats.paq_flushed = self.engine.paq.flushed
        return self.engine.stats

    def predictor_storage_bits(self) -> int:
        assert self.engine is not None
        predictor = self.engine.predictor
        if isinstance(predictor, CapPredictor):
            return predictor.storage_bits()
        return predictor.storage_bits(include_way=self.config.way_prediction)

    def access_counts(self) -> tuple[int, int]:
        assert self.engine is not None
        loads = self.engine.stats.loads_seen
        return loads, loads


class VtageScheme(Scheme):
    """VTAGE driven by the core's global branch history."""

    def __init__(self, config: VtageConfig | None = None) -> None:
        super().__init__()
        self.config = config or VtageConfig()
        self.name = "vtage"
        self.predictor = VtagePredictor(self.config)
        self.fetch_loads_only = self.config.loads_only

    def bind(self, hierarchy, image, branch_unit) -> None:
        super().bind(hierarchy, image, branch_unit)
        # Hot-path aliases: the history object outlives the run and the
        # per-load flat calls read only its .value.
        self._history = branch_unit.global_history
        self._loads_only = self.config.loads_only

    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        if not ndests or not values:
            return None
        if self._loads_only and op != _LOAD:
            return None
        is_vector = bool(flags & F_VECTOR)
        handle = self.predictor.begin_flat(
            pc, op, ndests, is_vector, values, self._history.value
        )
        if handle is None:
            return None
        vals_pred = handle.prediction
        if op == _LOAD and load_slot is None:
            vals_pred = None           # per-cycle prediction-port limit
        correct = vals_pred is not None and vals_pred == (
            values if is_vector else tuple(v & _MASK64 for v in values)
        )
        registers = (2 * ndests) if is_vector else ndests
        return (vals_pred, correct, handle, registers)

    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        return value_predicted, self.predictor.finish_flat(
            handle, op, ndests, bool(flags & F_VECTOR), values
        )

    def result_stats(self):
        return self.predictor.stats

    def predictor_storage_bits(self) -> int:
        return self.predictor.storage_bits()

    def access_counts(self) -> tuple[int, int]:
        loads = self.predictor.stats.loads_seen
        tables = len(self.config.history_lengths)
        return tables * loads, loads


class DvtageScheme(Scheme):
    """D-VTAGE (differential VTAGE) driven by the global branch history.

    An extension beyond the paper's evaluated set: Section 2.1 discusses
    D-VTAGE's trade-offs (adder on the critical path, speculative
    last-value window) without evaluating it; this scheme lets the
    benchmarks quantify them on the same workloads.
    """

    fetch_loads_only = True

    def __init__(self, config: "DvtageConfig | None" = None) -> None:
        super().__init__()
        from repro.predictors.dvtage import DvtageConfig
        self.config = config or DvtageConfig()
        self.name = "dvtage"
        from repro.predictors.dvtage import DvtagePredictor
        self.predictor = DvtagePredictor(self.config)

    def bind(self, hierarchy, image, branch_unit) -> None:
        super().bind(hierarchy, image, branch_unit)
        self._history = branch_unit.global_history

    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        if op != _LOAD:
            return None
        history = self._history.value
        prediction = self.predictor.predict_flat(
            pc, op, ndests, bool(flags & F_VECTOR), history
        )
        if load_slot is None:
            prediction = None
        correct = (
            prediction is not None
            and (prediction,) == tuple(v & _MASK64 for v in values)
        )
        return (
            (prediction,) if prediction is not None else None,
            correct,
            history,
            ndests,
        )

    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        prediction = self.predictor.train_flat(
            pc, op, ndests, bool(flags & F_VECTOR), values, handle
        )
        correct = prediction is not None and (prediction,) == tuple(
            v & _MASK64 for v in values
        )
        return value_predicted, correct

    def result_stats(self):
        return self.predictor.stats

    def predictor_storage_bits(self) -> int:
        return self.predictor.storage_bits()

    def access_counts(self) -> tuple[int, int]:
        loads = self.predictor.stats.loads_seen
        tables = 1 + len(self.config.history_lengths)
        return tables * loads, loads


@register_stats_type
@dataclass
class TournamentStats:
    """Figure 8 material."""

    loads: int = 0
    final_predictions: int = 0
    final_by_dlvp: int = 0
    final_by_vtage: int = 0

    @property
    def coverage(self) -> float:
        return self.final_predictions / self.loads if self.loads else 0.0

    @property
    def dlvp_share(self) -> float:
        """Fraction of loads whose final prediction came from DLVP."""
        return self.final_by_dlvp / self.loads if self.loads else 0.0

    @property
    def vtage_share(self) -> float:
        return self.final_by_vtage / self.loads if self.loads else 0.0


class TournamentScheme(Scheme):
    """DLVP and VTAGE running concurrently with a 2-bit chooser."""

    fetch_loads_only = True

    def __init__(
        self,
        dlvp_config: DlvpConfig | None = None,
        vtage_config: VtageConfig | None = None,
        chooser_entries: int = 1024,
    ) -> None:
        super().__init__()
        self.name = "tournament"
        self.dlvp = DlvpScheme(dlvp_config)
        self.vtage = VtageScheme(vtage_config)
        self.chooser = TournamentChooser(entries=chooser_entries)
        self.stats = TournamentStats()

    def bind(self, hierarchy, image, branch_unit) -> None:
        super().bind(hierarchy, image, branch_unit)
        self.dlvp.bind(hierarchy, image, branch_unit)
        self.vtage.bind(hierarchy, image, branch_unit)

    def flat_prepare(self, trace) -> None:
        self.dlvp.flat_prepare(trace)
        # Sub-scheme entry points, aliased for the per-load calls.  The
        # DLVP side's are the fused closures flat_prepare just built,
        # or its reference transport when the run is traced.
        self._dlvp_flat_fetch = self.dlvp.flat_fetch
        self._dlvp_flat_execute = self.dlvp.flat_execute
        self._vtage_flat_fetch = self.vtage.flat_fetch
        self._vtage_flat_execute = self.vtage.flat_execute

    def attach_tracer(self, tracer) -> None:
        super().attach_tracer(tracer)
        self.dlvp.attach_tracer(tracer)
        self.vtage.attach_tracer(tracer)

    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        if op != _LOAD:
            return None
        d = self._dlvp_flat_fetch(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            fetch_cycle, load_slot, probe_cycle,
        )
        v = self._vtage_flat_fetch(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            fetch_cycle, load_slot, probe_cycle,
        )
        self.stats.loads += 1

        prefer_dlvp = self.chooser.choose_a(pc)
        d_values = d[0] if d is not None else None
        v_values = v[0] if v is not None else None
        if d_values is None and v_values is None:
            return (None, False, (d, v, prefer_dlvp), ndests)
        # Candidate preference: the chooser's pick when that side
        # predicted, else whichever side did.
        if d_values is not None and (prefer_dlvp or v_values is None):
            final_is_dlvp, chosen = True, d
        else:
            final_is_dlvp, chosen = False, v
        self.chooser.record_choice(final_is_dlvp)
        self.stats.final_predictions += 1
        if final_is_dlvp:
            self.stats.final_by_dlvp += 1
        else:
            self.stats.final_by_vtage += 1
        return (chosen[0], chosen[1], (d, v, final_is_dlvp), chosen[3])

    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        d, v, final_is_dlvp = handle
        a_correct: bool | None = None
        b_correct: bool | None = None
        value_correct = False
        if d is not None:
            d_values = d[0]
            dlvp_used = value_predicted and final_is_dlvp
            _, d_correct = self._dlvp_flat_execute(
                pc, op, mem_addr, mem_size, flags, ndests, values,
                d[2], d_values, way, dlvp_used,
            )
            if d_values is not None:
                a_correct = d[1]
            if dlvp_used:
                value_correct = d_correct
        if v is not None:
            v_values = v[0]
            _, v_correct = self._vtage_flat_execute(
                pc, op, mem_addr, mem_size, flags, ndests, values,
                v[2], v_values, way, False,
            )
            if v_values is not None:
                b_correct = v[1]
            if value_predicted and not final_is_dlvp:
                value_correct = v_correct
        self.chooser.update(pc, a_correct, b_correct)
        return value_predicted, value_correct

    def on_value_flush(self) -> None:
        super().on_value_flush()
        self.dlvp.on_value_flush()
        self.vtage.on_value_flush()

    def on_branch_flush(self) -> None:
        self.dlvp.on_branch_flush()

    def way_predicted_probes(self) -> int:
        return self.dlvp.way_predicted_probes()

    def result_stats(self):
        return {
            "tournament": self.stats,
            "dlvp": self.dlvp.result_stats(),
            "vtage": self.vtage.result_stats(),
            "chooser": self.chooser.stats,
        }

    def predictor_storage_bits(self) -> int:
        return (
            self.dlvp.predictor_storage_bits()
            + self.vtage.predictor_storage_bits()
            + self.chooser.storage_bits()
        )

    def access_counts(self) -> tuple[int, int]:
        dr, dw = self.dlvp.access_counts()
        vr, vw = self.vtage.access_counts()
        return dr + vr, dw + vw
