"""Property tests of the shared array geometry (paper Section 4.1).

``offset_fn`` is the one subscript-to-offset map of every substrate and
``ArrayHeader.page_owner`` the one ownership table, so their contracts
are pinned here over 1-3-D shapes.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.common.errors import BoundsViolation
from repro.runtime.arrays import ArrayHeader, segment_of_page

shapes = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
)


@st.composite
def shape_and_indices(draw):
    dims = draw(shapes)
    indices = tuple(draw(st.integers(1, d)) for d in dims)
    return dims, indices


@given(case=shape_and_indices())
def test_offset_is_row_major_and_round_trips(case):
    dims, indices = case
    h = ArrayHeader(1, dims, 4, 3)
    expected = 0
    for idx, dim in zip(indices, dims):
        expected = expected * dim + (idx - 1)
    assert h.offset(indices) == expected
    assert h.indices_of(expected) == indices


@st.composite
def bad_subscripts(draw):
    """A shape plus a subscript tuple that must be rejected: one
    position replaced by a float, a bool, zero or a too-large value, or
    the wrong number of subscripts."""
    dims, indices = draw(shape_and_indices())
    kind = draw(st.sampled_from(["float", "bool", "zero", "large",
                                 "arity"]))
    if kind == "arity":
        n = draw(st.integers(0, 4).filter(lambda n: n != len(dims)))
        return dims, tuple(draw(st.integers(1, 6)) for _ in range(n))
    pos = draw(st.integers(0, len(dims) - 1))
    bad = {
        "float": float(indices[pos]) + draw(st.sampled_from([0.0, 0.5])),
        "bool": draw(st.booleans()),
        "zero": 0,
        "large": dims[pos] + draw(st.integers(1, 5)),
    }[kind]
    return dims, indices[:pos] + (bad,) + indices[pos + 1:]


@given(case=bad_subscripts())
def test_bad_subscripts_raise_bounds_violation(case):
    dims, indices = case
    h = ArrayHeader(1, dims, 4, 3)
    with pytest.raises(BoundsViolation):
        h.offset(indices)


@given(dims=shapes, page=st.integers(1, 64), pes=st.integers(1, 40))
def test_page_owner_matches_segment_of_page(dims, page, pes):
    h = ArrayHeader(1, dims, page, pes)
    assert len(h.page_owner) == h.pages
    for p in range(h.pages):
        assert h.page_owner[p] == segment_of_page(p, h.pages, pes)
    for off in range(h.total_elements):
        assert h.owner_of_offset(off) == h.page_owner[off // page]


@given(dims=shapes, pes=st.integers(2, 40))
def test_page_owner_with_fewer_pages_than_pes(dims, pes):
    h = ArrayHeader(1, dims, 64, pes)
    assume(h.pages < pes)
    assert h.page_owner == tuple(range(h.pages))
