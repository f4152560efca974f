"""Unit tests for the plan layer: DAG shape, floors, expansion splicing."""

from __future__ import annotations

from repro.build import expansion_children, partition_plan
from repro.build.tasks import (
    KIND_COARSE_PARTITION,
    KIND_COARSE_RUN,
    KIND_PARTITION,
)
from repro.core.partition import Partitioning
from repro.datasets.synthetic import generate_flat_dataset


def _schema():
    schema, _table = generate_flat_dataset(
        2, 10, cardinalities=(4, 3), aggregates=(("sum", 0),)
    )
    return schema


def _level_plan(schema, partition_names, level):
    return partition_plan(
        schema, 1, Partitioning((level,), None, partition_names, ["fact.coarseN"])
    )


def test_single_level_plan_shape():
    schema = _schema()
    plan = _level_plan(schema, ["fact.part0", "fact.part1"], 2)
    assert len(plan.units) == 3
    assert sum(unit.kind == "partition" for unit in plan.units) == 2
    for index, unit in enumerate(plan.units[:2]):
        assert unit.index == index
        assert unit.kind == "partition"
        (task,) = unit.tasks
        assert task.kind == KIND_PARTITION
        assert task.relation == f"fact.part{index}"
        assert task.levels == (2,)
        assert task.unit == index
        assert task.base_floor is None
        assert not task.drop_after
        assert task.task_id == f"u{index}:fact.part{index}"
    coarse_unit = plan.units[2]
    assert coarse_unit.index == 2
    assert coarse_unit.kind == "coarse"
    (coarse,) = coarse_unit.tasks
    assert coarse.kind == KIND_COARSE_RUN
    assert coarse.relation == "fact.coarseN"
    assert coarse.task_id == "u2:fact.coarseN"
    assert coarse.levels == ()
    assert coarse.base_floor == (3, 0)
    assert coarse.unit == 2
    assert not coarse.drop_after


def test_pair_plan_shape():
    schema = _schema()
    plan = partition_plan(
        schema,
        1,
        Partitioning(
            (1, 2), None, ["fact.pair0"], ["fact.coarseN1", "fact.coarseN2"]
        ),
    )
    assert [unit.kind for unit in plan.units] == [
        "partition",
        "coarse",
        "coarse",
    ]
    assert [unit.index for unit in plan.units] == [0, 1, 2]
    (pair,) = plan.units[0].tasks
    assert pair.kind == KIND_PARTITION
    assert pair.levels == (1, 2)
    assert pair.base_floor is None
    assert pair.task_id == "u0:fact.pair0"
    (n1,) = plan.units[1].tasks
    assert n1.kind == KIND_COARSE_RUN
    assert n1.task_id == "u1:fact.coarseN1"
    assert n1.levels == ()
    assert n1.base_floor == (2, 0)
    (n2,) = plan.units[2].tasks
    assert n2.kind == KIND_COARSE_PARTITION
    assert n2.task_id == "u2:fact.coarseN2"
    assert n2.levels == (1,)
    assert n2.base_floor == (0, 3)
    assert [task.unit for task in (pair, n1, n2)] == [0, 1, 2]
    assert not any(task.drop_after for task in (pair, n1, n2))


def test_expansion_children_single_split():
    schema = _schema()
    plan = _level_plan(schema, ["fact.part3"], 2)
    (parent,) = plan.units[0].tasks
    split = Partitioning(
        levels=(0,),
        parent_level=2,
        partition_names=["fact.part3.sub0", "fact.part3.sub1"],
        coarse_names=["fact.part3.coarseN"],
    )
    children = expansion_children(parent, split, schema.n_dimensions)
    assert [c.kind for c in children] == [
        KIND_PARTITION,
        KIND_PARTITION,
        KIND_COARSE_PARTITION,
    ]
    assert [c.task_id for c in children] == [
        "u0:fact.part3.sub0",
        "u0:fact.part3.sub1",
        "u0:fact.part3.coarseN",
    ]
    assert all(c.drop_after for c in children)
    assert all(c.unit == parent.unit for c in children)
    subs = children[:2]
    assert [c.levels for c in subs] == [(0,), (0,)]
    assert [c.base_floor for c in subs] == [None, None]
    coarse = children[2]
    # The local coarse re-enters dimension 0 at the parent's level with
    # descent floored just above the split level.
    assert coarse.levels == parent.levels
    assert coarse.base_floor == (1, 0)


def test_expansion_children_local_pair_split():
    schema = _schema()
    plan = _level_plan(schema, ["fact.part3"], 2)
    (parent,) = plan.units[0].tasks
    split = Partitioning(
        levels=(0, 1),
        parent_level=2,
        partition_names=["fact.part3.p0"],
        coarse_names=["fact.part3.coarseN1", "fact.part3.coarseN2"],
    )
    children = expansion_children(parent, split, schema.n_dimensions)
    assert [c.kind for c in children] == [
        KIND_PARTITION,
        KIND_COARSE_PARTITION,
        KIND_COARSE_PARTITION,
    ]
    pair, coarse1, coarse2 = children
    assert pair.levels == (0, 1)
    assert pair.base_floor is None
    assert coarse1.relation == "fact.part3.coarseN1"
    assert coarse1.levels == (split.parent_level,)
    assert coarse1.base_floor == (1, 0)
    assert coarse2.relation == "fact.part3.coarseN2"
    assert coarse2.levels == (0,)
    assert coarse2.base_floor == (0, 2)
    assert all(c.drop_after for c in children)
    assert all(c.unit == parent.unit for c in children)
    assert [c.task_id for c in children] == [
        f"u0:{c.relation}" for c in children
    ]


def test_expansion_children_pair_split_without_n1():
    """When the split enters at the parent's own level, the local N1
    slice is empty and must not produce a task (double counting)."""
    schema = _schema()
    plan = _level_plan(schema, ["fact.part3"], 0)
    (parent,) = plan.units[0].tasks
    split = Partitioning(
        levels=(0, 0),
        parent_level=0,
        partition_names=["fact.part3.p0", "fact.part3.p1"],
        coarse_names=["fact.part3.coarseN2"],
    )
    children = expansion_children(parent, split, schema.n_dimensions)
    assert [c.kind for c in children] == [
        KIND_PARTITION,
        KIND_PARTITION,
        KIND_COARSE_PARTITION,
    ]
    coarse2 = children[2]
    assert coarse2.relation == "fact.part3.coarseN2"
    assert coarse2.levels == (0,)
    assert coarse2.base_floor == (0, 1)
    assert all(c.drop_after and c.unit == parent.unit for c in children)
