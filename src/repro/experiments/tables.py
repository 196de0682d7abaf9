"""Tables 1-4 — configuration/structure tables regenerated from code.

* Table 1 — APT entry field widths.
* Table 2 — PVT design area/energy (computed by :mod:`repro.energy.prf`).
* Table 3 — the workload suite.
* Table 4 — baseline core configuration plus predictor storage budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy import pvt_design_table
from repro.energy.prf import PvtDesign
from repro.experiments.runner import format_table
from repro.pipeline import CoreConfig
from repro.predictors import (
    AptEntryLayout,
    CapConfig,
    CapPredictor,
    PapConfig,
    PapPredictor,
    VtageConfig,
    VtagePredictor,
)
from repro.workloads import PAPER_GROUPS, SUITE_GROUPS


@dataclass(frozen=True)
class Table1Result:
    layout: AptEntryLayout
    armv7_bits: int
    armv8_bits: int

    def render(self) -> str:
        rows = [
            ["tag", str(self.layout.tag_bits)],
            ["memory address (ARMv8)", str(self.layout.address_bits)],
            ["confidence (FPC)", str(self.layout.confidence_bits)],
            ["size", str(self.layout.size_bits)],
            ["cache way (optional)", str(self.layout.way_bits)],
            ["entry total ARMv7 / ARMv8", f"{self.armv7_bits} / {self.armv8_bits}"],
        ]
        return "Table 1 — APT entry fields (bits)\n" + format_table(["field", "bits"], rows)


def table1() -> Table1Result:
    """Compute Table 1 (APT entry field widths)."""
    layout = AptEntryLayout()
    v7 = AptEntryLayout(address_bits=32)
    return Table1Result(
        layout=layout, armv7_bits=v7.bits(), armv8_bits=layout.bits()
    )


@dataclass(frozen=True)
class Table2Result:
    designs: dict[str, PvtDesign]

    def render(self) -> str:
        rows = [
            [d.name, f"{d.area:5.2f}", f"{d.read_energy:5.2f}", f"{d.write_energy:5.2f}"]
            for d in self.designs.values()
        ]
        return (
            "Table 2 — PVT designs normalized to Design #1 "
            "(paper: area 0.06/1.00/1.16/1.06; read 0.10/1.00/1.10/0.80; "
            "write 0.07/1.00/1.51/1.07)\n"
            + format_table(["design", "area", "read energy", "write energy"], rows)
        )


def table2(predicted_fraction: float = 0.30) -> Table2Result:
    """Compute Table 2 (PVT design area/energy)."""
    return Table2Result(designs=pvt_design_table(predicted_fraction))


@dataclass(frozen=True)
class Table3Result:
    groups: dict[str, list[str]]

    @property
    def total(self) -> int:
        return sum(len(names) for names in self.groups.values())

    def render(self) -> str:
        rows = [
            [group, str(len(names)), ", ".join(sorted(names))]
            for group, names in sorted(self.groups.items())
        ]
        return (
            f"Table 3 — workload suite ({self.total} workloads)\n"
            + format_table(["group", "count", "workloads"], rows)
        )


def table3() -> Table3Result:
    """Compute Table 3 (the paper's workload suite).

    Restricted to :data:`~repro.workloads.PAPER_GROUPS`: adversarial
    stress workloads live in the registry for robustness tests but are
    not part of the paper's 78-benchmark pool.
    """
    return Table3Result(
        groups={g: list(SUITE_GROUPS[g]) for g in PAPER_GROUPS}
    )


@dataclass(frozen=True)
class Table4Result:
    core: CoreConfig
    pap_bits: int
    pap_bits_v7: int
    cap_bits: int
    vtage_bits: int

    def render(self) -> str:
        cfg = self.core
        rows = [
            ["fetch-rename width", f"{cfg.fetch_width} instr/cycle"],
            ["issue-commit width", f"{cfg.issue_width} instr/cycle"],
            ["execution lanes", f"{cfg.ls_lanes} load-store + {cfg.generic_lanes} generic"],
            ["ROB/IQ/LDQ/STQ", f"{cfg.rob_entries}/{cfg.iq_entries}/{cfg.ldq_entries}/{cfg.stq_entries}"],
            ["physical registers", str(cfg.physical_registers)],
            ["fetch-to-execute", f"{cfg.fetch_to_execute} cycles"],
            ["PAP budget (v7/v8)", f"{self.pap_bits_v7 // 1024}k / {self.pap_bits // 1024}k bits"],
            ["CAP budget", f"{self.cap_bits // 1024}k bits"],
            ["VTAGE budget", f"{self.vtage_bits / 1024:.1f}k bits"],
        ]
        return (
            "Table 4 — baseline core and predictor budgets "
            "(paper: PAP 50k/67k, CAP 78k/95k, VTAGE 62.3k bits)\n"
            + format_table(["parameter", "value"], rows)
        )


def table4() -> Table4Result:
    """Compute Table 4 (core config and predictor budgets)."""
    pap = PapPredictor(PapConfig())
    pap_v7 = PapPredictor(PapConfig(address_bits=32))
    cap = CapPredictor(CapConfig())
    vtage = VtagePredictor(VtageConfig())
    return Table4Result(
        core=CoreConfig(),
        pap_bits=pap.storage_bits(),
        pap_bits_v7=pap_v7.storage_bits(),
        cap_bits=cap.storage_bits(),
        vtage_bits=vtage.storage_bits(),
    )
