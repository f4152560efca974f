"""Reference oracle: the signature pool as a Python list of tuples.

The pool ``repro.core.signature`` shipped before it kept its window as an
array: one ``Signature`` per ``add``, ``list.sort`` on ``(aggregates,
rowid)``, a generator walking runs.  Test-only —
:mod:`tests.core.test_signature` requires the array pool to emit the same
NTs and CAT runs in the same order over the same windows, and the same
first-flush ``(m, k, n)`` statistics.
"""

from __future__ import annotations

from repro.core.signature import FormatStatistics, Signature


class ListSignaturePool:
    """Bounded pool with sort-classify-flush semantics, one tuple at a time.

    ``emitted`` records, in emission order, ``("nt", signature)`` per
    singleton run and ``("cats", [signatures…])`` per longer run;
    ``windows`` the number of signatures each flush classified.
    """

    def __init__(self, capacity: int | None) -> None:
        self.capacity = capacity
        self.emitted: list[tuple] = []
        self.windows: list[int] = []
        self.first_flush_statistics: FormatStatistics | None = None
        self._pool: list[Signature] = []

    def add(self, signature: Signature) -> None:
        if self.capacity is not None and len(self._pool) >= self.capacity:
            self.flush()
        self._pool.append(signature)

    def flush(self) -> None:
        if not self._pool:
            return
        self.windows.append(len(self._pool))
        self._pool.sort(key=lambda s: (s.aggregates, s.rowid))
        runs: list[list[Signature]] = []
        for signature in self._pool:
            if runs and runs[-1][0].aggregates == signature.aggregates:
                runs[-1].append(signature)
            else:
                runs.append([signature])
        if self.first_flush_statistics is None:
            statistics = FormatStatistics()
            for run in runs:
                if len(run) > 1:
                    statistics.m += 1
                    statistics.total_cats += len(run)
                    statistics.total_sources += len({s.rowid for s in run})
            self.first_flush_statistics = statistics
        for run in runs:
            if len(run) == 1:
                self.emitted.append(("nt", run[0]))
            else:
                self.emitted.append(("cats", run))
        self._pool.clear()
