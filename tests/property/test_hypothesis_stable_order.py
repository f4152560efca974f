"""Property tests: ``stable_order`` is NumPy's stable multi-key sort.

:func:`~repro.core.segments.stable_order` packs group ranks, column
offsets and row positions into int64 keys and sorts them in place; the
reference is ``np.lexsort`` over the same columns, least significant
first.  The columns exercise each of its paths: heavy ties, negative
values, narrow columns that share one key, wide ones (≥ 2⁴⁰ apart) that
take a refinement step each, and int64 extremes whose span of 2⁶³ or more
cannot sit beside the position bits and goes to the fallback sort.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from repro.core.segments import stable_order

I64 = np.iinfo(np.int64)
WIDE = 2**40

column_values = st.sampled_from(
    [
        st.integers(-3, 3),  # heavy ties
        st.integers(-(2**20), 2**20),  # several share one key
        st.integers(-WIDE, WIDE),  # one refinement step each
        st.integers(I64.min, I64.max),  # spans ≥ 2⁶³: the fallback
        st.sampled_from([I64.min, I64.max, 0, -1]),
    ]
)


@st.composite
def tables(draw) -> list[np.ndarray]:
    n = draw(st.integers(0, 40))
    return [
        np.array(
            draw(st.lists(draw(column_values), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        for _ in range(draw(st.integers(1, 6)))
    ]


def _table(*columns: list[int]) -> list[np.ndarray]:
    return [np.array(column, dtype=np.int64) for column in columns]


@settings(max_examples=400, deadline=None)
@example(_table([]))
@example(_table([], []))
@example(_table([5]))
@example(_table([-1], [I64.max]))
@example(_table([2, 2], [1, 0]))
@example(_table([I64.max, I64.min]))  # the fallback at the first column
@example(_table([0, 0, 1, 1], [I64.min, I64.max, 0, 0]))  # after a step
@example(  # 41 + 41 + 2 bits: three steps, ties in each
    _table(
        [WIDE, 0, WIDE, 0],
        [0, 0, -WIDE, 0],
        [7, -WIDE, 7, WIDE],
    )
)
@example(_table([3] * 6, [1, 0] * 3, [0] * 6))  # constant columns
@given(tables())
def test_stable_order_is_lexsort(columns):
    order = stable_order(*columns)
    assert order.dtype == np.int64
    assert order.tolist() == np.lexsort(columns[::-1]).tolist()
