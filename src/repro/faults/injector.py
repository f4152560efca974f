"""The seed-driven fault injector.

Faults are described as :class:`FaultSpec` entries — *which* site pattern,
*which* occurrence, *what kind* of failure — and armed in a
:class:`FaultInjector`.  Because every trigger is keyed to a deterministic
event count, a given (plan, build) pair always fails at exactly the same
instruction boundary, which is what lets the crash/resume property test
enumerate injection points exhaustively and lets CI replay a failure from
nothing but its seed.

Fault kinds:

* ``CRASH`` — raise :class:`InjectedCrash`: the process dies here.  On-disk
  state is whatever the build had *committed*; everything else is garbage
  the resume path must ignore.
* ``TORN_WRITE`` — at a ``heap.write`` or ``ingest.append`` site, persist
  only a prefix of the payload and then crash (power loss mid-``write``).
  At any other site it degrades to ``CRASH``.
* ``TRANSIENT`` — raise :class:`TransientIOError` for ``times`` consecutive
  matching events, then succeed; exercised against the bounded-retry
  wrapper.
* ``MEMORY_SHOCK`` — raise :class:`MemoryBudgetExceeded` at a
  ``memory.reserve`` site even though the claim would fit, modelling a
  cardinality estimate that under-provisioned the load (the trigger for
  adaptive re-partitioning).
"""

from __future__ import annotations

import enum
import fnmatch
import random
from dataclasses import dataclass, field

from repro.relational.durable import (
    InjectedCrash,
    TornWrite,
    TransientIOError,
)
from repro.relational.memory import MemoryBudgetExceeded


#: Every site family the build fires, as ``family`` in ``family:detail``
#: site strings.  The R13 lint rule cross-checks two ways: every reachable
#: durable-primitive call must sit on a path covered by a ``fire`` of one
#: of these families, and no code may fire a family missing from this set.
SITE_FAMILIES: frozenset[str] = frozenset(
    {
        "heap.write",
        "heap.flush",
        "heap.read",
        "memory.reserve",
        "catalog.create",
        "catalog.drop",
        "catalog.publish",
        "repartition.single",
        "repartition.pair",
        "manifest.save",
        "checkpoint.write",
        "commit.final",
        "storage2.publish",
        "ingest.append",
        "ingest.seal",
        "ingest.apply",
        "ingest.compact",
        "build.worker",
    }
)

#: Site families whose writer implements the torn-write protocol (persist
#: a prefix of the payload, then crash).  Everywhere else TORN_WRITE
#: degrades to a plain CRASH.
_TORN_CAPABLE_PREFIXES = ("heap.write", "ingest.append")


class FaultKind(enum.Enum):
    """What happens when a :class:`FaultSpec` triggers."""

    CRASH = "crash"
    TORN_WRITE = "torn-write"
    TRANSIENT = "transient"
    MEMORY_SHOCK = "memory-shock"


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a site pattern, an occurrence, and a kind.

    ``site`` is an ``fnmatch`` pattern matched against full site strings
    (``"heap.write:fact.part*"``; ``"*"`` matches every site).  ``hit``
    is 1-based: the fault triggers on the ``hit``-th matching event.
    ``times`` widens TRANSIENT faults to several consecutive matches so
    retries can be exercised beyond one attempt.
    """

    site: str
    kind: FaultKind
    hit: int = 1
    times: int = 1
    keep_fraction: float = 0.5

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatchcase(site, self.site)


@dataclass
class FaultInjector:
    """Deterministic fault oracle implementing the ``FaultHook`` protocol.

    ``trace`` records every site event (fault or not), so a recording run
    — an injector with an empty plan — enumerates the injection points of
    a build; ``fired`` records the faults actually raised.

    Besides the relational-layer sites (``heap.*``, ``catalog.*``,
    ``memory.reserve``), the partitioner fires ``repartition.single:<p>``
    and ``repartition.pair:<p>`` when adaptive re-partitioning splits an
    over-budget partition ``<p>`` on a finer level of dimension 0 or —
    for intra-member skew — on (A_L0, B_M) member pairs, so crash sweeps
    land inside both recovery paths.
    """

    plan: tuple[FaultSpec, ...] = ()
    trace: list[str] = field(default_factory=list)
    fired: list[str] = field(default_factory=list)
    _match_counts: dict[int, int] = field(default_factory=dict, repr=False)

    @classmethod
    def recording(cls) -> "FaultInjector":
        """An injector that never faults — used to enumerate sites."""
        return cls(plan=())

    @classmethod
    def crash_at(cls, event_index: int) -> "FaultInjector":
        """Crash at the ``event_index``-th site event (0-based), any site."""
        return cls(plan=crash_plan(event_index))

    def sites(self, pattern: str) -> list[str]:
        """The traced site events matching an ``fnmatch`` pattern.

        Lets tests assert that a recording run actually reached a code
        path (``injector.sites("repartition.pair:*")``) and lets sweeps
        target a site family without hand-counting event indices.
        """
        return [
            site
            for site in self.trace
            if fnmatch.fnmatchcase(site, pattern)
        ]

    def fire(self, site: str) -> None:
        """One injection point; raises if an armed fault triggers."""
        self.trace.append(site)
        for index, spec in enumerate(self.plan):
            if not spec.matches(site):
                continue
            count = self._match_counts.get(index, 0) + 1
            self._match_counts[index] = count
            if count < spec.hit:
                continue
            if spec.kind is FaultKind.TRANSIENT:
                if count >= spec.hit + spec.times:
                    continue
                self.fired.append(f"{spec.kind.value}@{site}")
                raise TransientIOError(f"injected transient I/O error at {site}")
            if count > spec.hit:
                continue
            self.fired.append(f"{spec.kind.value}@{site}")
            if spec.kind is FaultKind.MEMORY_SHOCK:
                raise MemoryBudgetExceeded(f"injected memory shock at {site}")
            if spec.kind is FaultKind.TORN_WRITE and site.startswith(
                _TORN_CAPABLE_PREFIXES
            ):
                raise TornWrite(spec.keep_fraction)
            raise InjectedCrash(f"injected crash at {site}")


def crash_plan(event_index: int) -> tuple[FaultSpec, ...]:
    """A plan that crashes at the Nth site event regardless of site."""
    return (FaultSpec(site="*", kind=FaultKind.CRASH, hit=event_index + 1),)


def seeded_crash_indices(
    seed: int, n_sites: int, max_points: int
) -> list[int]:
    """A deterministic, seed-dependent sample of crash points.

    When a build has more injection points than a CI shard can afford to
    replay, each seed exercises a different subset; the union over the
    fault-matrix seeds approaches full coverage.  All points are returned
    when they fit the budget.
    """
    if n_sites <= max_points:
        return list(range(n_sites))
    rng = random.Random(seed)
    return sorted(rng.sample(range(n_sites), max_points))
