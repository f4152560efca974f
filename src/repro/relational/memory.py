"""Accounting memory manager: decides when a relation "fits in memory".

The paper's external-partitioning machinery (Section 4) exists only because
real machines have bounded memory.  In this reproduction physical memory is
plentiful relative to the scaled datasets, so the budget is *simulated*: a
:class:`MemoryManager` is given a byte budget and every load of a relation
into a :class:`~repro.relational.table.Table` is checked against it.  The
partitioning code consults the same budget when selecting the partition
level, exactly mirroring the ``inputRelation.size() < memorySize`` test of
Figure 13 in the paper.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.relational.durable import FaultHook, maybe_fire


class MemoryBudgetExceeded(RuntimeError):
    """Raised when a load would exceed the simulated memory budget."""


@dataclass
class MemoryManager:
    """Tracks a simulated memory budget in bytes.

    ``budget_bytes=None`` means unbounded (the all-in-memory fast path).
    ``peak_bytes`` records the high-water mark, which tests use to assert
    that partitioned runs truly stay within budget.
    """

    budget_bytes: int | None = None
    used_bytes: int = 0
    peak_bytes: int = 0
    faults: FaultHook | None = field(default=None, repr=False)
    _reservations: dict[int, int] = field(default_factory=dict, repr=False)
    _next_token: int = 0

    def fits(self, size_bytes: int) -> bool:
        """Would ``size_bytes`` more fit within the budget right now?"""
        if self.budget_bytes is None:
            return True
        return self.used_bytes + size_bytes <= self.budget_bytes

    def reserve(self, size_bytes: int, what: str = "") -> int:
        """Claim ``size_bytes``; returns a token for :meth:`release`.

        Raises :class:`MemoryBudgetExceeded` if the claim does not fit.
        """
        # A memory-shock fault fires here: the injector raises
        # MemoryBudgetExceeded for a reservation that would have fit,
        # modelling an estimate that under-provisioned the real load.
        maybe_fire(self.faults, f"memory.reserve:{what or 'load'}")
        if not self.fits(size_bytes):
            raise MemoryBudgetExceeded(
                f"cannot reserve {size_bytes} bytes for {what or 'load'}: "
                f"{self.used_bytes} of {self.budget_bytes} in use"
            )
        self.used_bytes += size_bytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        token = self._next_token
        self._next_token += 1
        self._reservations[token] = size_bytes
        return token

    def release(self, token: int) -> None:
        """Return a previous reservation to the pool."""
        size = self._reservations.pop(token)
        self.used_bytes -= size

    @contextmanager
    def reservation(self, size_bytes: int, what: str = "") -> Iterator[int]:
        """Reserve for the dynamic extent of a block, releasing on any exit.

        The try/finally guarantees a load that fails partway (I/O error,
        injected crash) returns its claim to the pool instead of leaking
        budget for the rest of the build.
        """
        token = self.reserve(size_bytes, what)
        try:
            yield token
        finally:
            self.release(token)

    @property
    def free_bytes(self) -> int | None:
        if self.budget_bytes is None:
            return None
        return self.budget_bytes - self.used_bytes
