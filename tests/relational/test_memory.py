"""Unit tests for the accounting memory manager."""

import pytest

from repro.relational.memory import MemoryBudgetExceeded, MemoryManager


def test_unbounded_always_fits():
    memory = MemoryManager()
    assert memory.fits(10**18)
    token = memory.reserve(10**9)
    assert memory.used_bytes == 10**9
    memory.release(token)
    assert memory.used_bytes == 0


def test_reserve_within_budget_and_peak_tracking():
    memory = MemoryManager(budget_bytes=100)
    t1 = memory.reserve(60)
    t2 = memory.reserve(40)
    assert memory.peak_bytes == 100
    memory.release(t1)
    memory.release(t2)
    assert memory.used_bytes == 0
    assert memory.peak_bytes == 100  # high-water mark persists


def test_reserve_over_budget_raises():
    memory = MemoryManager(budget_bytes=100)
    memory.reserve(80)
    with pytest.raises(MemoryBudgetExceeded, match="cannot reserve"):
        memory.reserve(21)
    assert memory.used_bytes == 80  # failed reserve leaves state intact


def test_release_unknown_token_raises():
    memory = MemoryManager(budget_bytes=100)
    with pytest.raises(KeyError):
        memory.release(123)


def test_double_release_raises():
    memory = MemoryManager(budget_bytes=100)
    token = memory.reserve(10)
    memory.release(token)
    with pytest.raises(KeyError):
        memory.release(token)


def test_free_bytes():
    assert MemoryManager().free_bytes is None
    memory = MemoryManager(budget_bytes=100)
    memory.reserve(30)
    assert memory.free_bytes == 70
