"""Fixture: ad-hoc counter increments that bypass the metrics registry.

Must trip ONLY ZS006 (lives under a ``core`` path component so the rule
applies; no dataclasses, randomness, clocks, or float equality).
"""


class BadBank:
    """Keeps shadow counters the registry never sees."""

    def __init__(self) -> None:
        self.stats = object()
        self.victim_stats = object()
        self.writeback_hits = 0
        self.bank_accesses = [0, 0]
        self._epoch_misses = 0
        self.queueing_cycles = 0

    def run(self, bank: int, delay: int) -> None:
        """Exercise flagged and exempt increment shapes."""
        self.writeback_hits += 1  # ZS006: bare counting suffix on self
        self.bank_accesses[bank] += 1  # ZS006: counter list on self
        # Exempt shapes: registry facades (their __setattr__ writes the
        # registered Counter), private accumulator, non-counter name,
        # and the sanctioned registry increment.
        self.stats.hits += 1
        self.victim_stats.swaps += 1
        self._epoch_misses += 1
        self.queueing_cycles += delay
        self.counter.value += 1
