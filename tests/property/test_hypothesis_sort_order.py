"""Property tests: ``ColumnAnswer``'s order is ``sorted(pairs)``.

Above ``LEXSORT_ROWS`` rows
:meth:`~repro.query.column_answer.ColumnAnswer.sort_order` packs the
dims columns and the row position into one int64 key and sorts it in
place (no order at all when the keys already ascend); up to it, and as
the fallback, one ``np.lexsort`` over every column is the order.  Every
draw runs with the cut at 0 and above the answer's size, so both
strategies meet the same answers; the reference is Python's ``sorted``
over the answer's pairs.  The answers exercise each path: distinct dims
rows (the packed key), rows already ascending, duplicate dims rows that
only the aggregates order (the fallback), negative codes, int64
extremes and spans wider than 62 bits (the fallback), arity 0, and
answers of 0 and 1 rows.
"""

from __future__ import annotations

from unittest.mock import patch

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from repro.query import column_answer
from repro.query.column_answer import ColumnAnswer

I64 = np.iinfo(np.int64)

code_values = st.sampled_from(
    [
        st.integers(0, 5),  # dense codes, duplicate rows likely
        st.integers(0, 2**12),  # cube-answer codes: the packed key
        st.integers(-(2**20), 2**20),  # negative codes
        st.integers(-(2**40), 2**40),  # wider than 62 bits at arity ≥ 2
        st.integers(I64.min, I64.max),  # int64 extremes
    ]
)


@st.composite
def answers(draw) -> ColumnAnswer:
    n = draw(st.integers(0, 30))
    arity = draw(st.integers(0, 4))
    n_aggregates = draw(st.integers(0, 2))
    values = draw(code_values)
    dims = draw(
        st.lists(
            st.lists(values, min_size=arity, max_size=arity),
            min_size=n,
            max_size=n,
        )
    )
    aggregates = draw(
        st.lists(
            st.lists(
                st.integers(I64.min, I64.max),
                min_size=n_aggregates,
                max_size=n_aggregates,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return _answer(dims, aggregates, arity, n_aggregates)


def _answer(dims, aggregates, arity, n_aggregates) -> ColumnAnswer:
    return ColumnAnswer(
        arity,
        n_aggregates,
        np.array(dims, dtype=np.int64).reshape(len(dims), arity),
        np.array(aggregates, dtype=np.int64).reshape(len(dims), n_aggregates),
    )


@settings(max_examples=400, deadline=None)
@example(_answer([], [], 2, 1))  # 0 rows
@example(_answer([[3, -1]], [[7]], 2, 1))  # 1 row
@example(_answer([[], [], []], [[2], [1], [2]], 0, 1))  # arity 0
@example(_answer([[1, 2], [1, 2], [0, 5]], [[9], [4], [0]], 2, 1))  # ties
@example(_answer([[4, 4], [4, 4]], [[1], [0]], 2, 1))  # constant dims
@example(_answer([[0, 1], [0, 2], [3, 0]], [[5], [0], [9]], 2, 1))  # ascending
@example(_answer([[-5, 3], [-7, 3], [2, -9]], [[0], [0], [0]], 2, 1))
@example(  # a span of 2⁶⁴ - 1: the fallback
    _answer([[I64.max, 0], [I64.min, 1]], [[0], [1]], 2, 1)
)
@example(  # near the extremes, yet narrow: the packed key
    _answer([[I64.max, I64.max - 1], [I64.max - 1, I64.max]], [[0], [0]], 2, 1)
)
@example(_answer([[2**62], [0]], [[0], [0]], 1, 1))  # 63 + 1 bits: fallback
@example(  # 3 × 41 bits: wider than 62, the fallback
    _answer([[2**40, 0, -(2**40)], [0, 2**40, 0]], [[1], [2]], 3, 1)
)
@given(answers())
def test_normalized_is_sorted_pairs(answer):
    pairs = answer.to_pairs()
    for cut in (0, len(answer)):
        with patch.object(column_answer, "LEXSORT_ROWS", cut):
            assert answer.normalized().to_pairs() == sorted(pairs)
            order = answer.sort_order()
        assert order.dtype == np.int64
        assert sorted(order.tolist()) == list(range(len(answer)))
