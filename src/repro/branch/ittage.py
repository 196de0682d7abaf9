"""ITTAGE indirect-target predictor.

Same tagged geometric-history structure as TAGE but entries carry a full
target address plus a 2-bit hysteresis counter; the longest matching
component supplies the predicted target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.history import GlobalHistory


@dataclass(frozen=True)
class IttageConfig:
    base_entries: int = 512
    tagged_entries: int = 512
    tag_bits: int = 11
    history_lengths: tuple[int, ...] = (4, 16, 64)
    max_history: int = 64


class Ittage:
    """Indirect-branch target predictor.

    Like :class:`~repro.branch.tage.Tage`, history folds are maintained
    incrementally per pushed bit rather than recomputed per lookup.
    """

    def __init__(self, config: IttageConfig | None = None) -> None:
        self.config = config or IttageConfig()
        cfg = self.config
        self.history = GlobalHistory(cfg.max_history)
        self._base: dict[int, int] = {}
        # The tagged components, one flat int list per field: entry
        # ``index`` of table ``t`` lives at slot ``t * tagged_entries +
        # index``.  Tags start at -1, which no computed tag matches.
        slots = len(cfg.history_lengths) * cfg.tagged_entries
        self._tags = [-1] * slots
        self._targets = [0] * slots
        self._conf = [0] * slots      # 2-bit hysteresis, [0, 3]
        idx_bits = cfg.tagged_entries.bit_length() - 1
        self._idx_folds = [
            self.history.folded_register(L, idx_bits) for L in cfg.history_lengths
        ]
        self._tag_folds = [
            self.history.folded_register(L, cfg.tag_bits) for L in cfg.history_lengths
        ]
        self.predictions = 0
        self.mispredictions = 0

    def _slot(self, pc: int, table: int) -> int:
        """Flat-list position of ``table``'s entry for ``pc``."""
        entries = self.config.tagged_entries
        folded = self._idx_folds[table].value
        return table * entries + ((pc >> 2) ^ folded ^ (table * 0x1F)) % entries

    def _tag(self, pc: int, table: int) -> int:
        cfg = self.config
        folded = self._tag_folds[table].value
        return ((pc >> 2) ^ (folded << 1)) & ((1 << cfg.tag_bits) - 1)

    def predict(self, pc: int) -> int | None:
        """Predicted target for the indirect branch at ``pc`` (None = no idea)."""
        for table in reversed(range(len(self.config.history_lengths))):
            slot = self._slot(pc, table)
            if self._tags[slot] == self._tag(pc, table):
                return self._targets[slot]
        return self._base.get((pc >> 2) % self.config.base_entries)

    def update(self, pc: int, target: int) -> bool:
        """Train on the resolved target; returns True if mispredicted."""
        predicted = self.predict(pc)
        self.predictions += 1
        mispredicted = predicted != target

        tags = self._tags
        targets = self._targets
        conf = self._conf
        provider = None
        for table in reversed(range(len(self.config.history_lengths))):
            slot = self._slot(pc, table)
            if tags[slot] == self._tag(pc, table):
                provider = table
                if targets[slot] == target:
                    conf[slot] = min(3, conf[slot] + 1)
                elif conf[slot] == 0:
                    targets[slot] = target
                else:
                    conf[slot] -= 1
                break
        self._base[(pc >> 2) % self.config.base_entries] = target

        if mispredicted:
            self.mispredictions += 1
            start = 0 if provider is None else provider + 1
            for table in range(start, len(self.config.history_lengths)):
                slot = self._slot(pc, table)
                if conf[slot] == 0:
                    tags[slot] = self._tag(pc, table)
                    targets[slot] = target
                    conf[slot] = 1
                    break
        return mispredicted

    def update_history(self, target: int) -> None:
        # Indirect targets contribute a couple of target bits to history.
        self.history.push((target >> 2) & 1)
        self.history.push((target >> 3) & 1)
