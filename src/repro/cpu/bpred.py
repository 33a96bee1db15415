"""Branch predictor model.

Table II specifies an L-TAGE predictor with 13 components and ~31k
entries.  A faithful L-TAGE is overkill for the questions this
reproduction answers (REST adds no branches on the hot path; ASan adds
one highly-biased branch per memory access), so we model a gshare
predictor with a generously sized table plus a bimodal fallback — the
accuracy regime is the same for the biased branches that dominate these
workloads, and mispredictions still cost a full pipeline redirect.
"""

from __future__ import annotations


class BranchPredictor:
    """Gshare with bimodal fallback; 2-bit saturating counters."""

    def __init__(self, table_bits: int = 14, history_bits: int = 12) -> None:
        if table_bits <= 0 or history_bits < 0:
            raise ValueError("predictor geometry must be positive")
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._gshare = [2] * (1 << table_bits)  # weakly taken
        self._bimodal = [2] * (1 << table_bits)
        self._chooser = [2] * (1 << table_bits)  # prefers gshare
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``; train on the actual outcome.

        Returns True when the prediction was correct.  Called once per
        replayed branch, so each counter is read once into a local and
        saturated with comparisons rather than ``min``/``max``.
        """
        mask = self._mask
        history = self._history
        base = (pc >> 2) & mask
        gidx = base ^ (history & mask)
        gshare = self._gshare
        bimodal = self._bimodal
        g = gshare[gidx]
        b = bimodal[base]
        gshare_taken = g >= 2
        bimodal_taken = b >= 2
        if self._chooser[base] >= 2:
            correct = gshare_taken == taken
        else:
            correct = bimodal_taken == taken

        self.predictions += 1
        if not correct:
            self.mispredictions += 1

        # Train the chooser toward whichever component was right.
        if gshare_taken != bimodal_taken:
            chooser = self._chooser
            c = chooser[base]
            if gshare_taken == taken:
                if c < 3:
                    chooser[base] = c + 1
            elif c > 0:
                chooser[base] = c - 1
        # Train both components.
        if taken:
            if g < 3:
                gshare[gidx] = g + 1
            if b < 3:
                bimodal[base] = b + 1
            self._history = ((history << 1) | 1) & self._history_mask
        else:
            if g > 0:
                gshare[gidx] = g - 1
            if b > 0:
                bimodal[base] = b - 1
            self._history = (history << 1) & self._history_mask
        return correct

    def reset_stats(self) -> None:
        self.predictions = 0
        self.mispredictions = 0
