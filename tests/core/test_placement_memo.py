"""Memoized functional placement == the geometry it replaces.

Copy payloads slice through :func:`repro.core.buffers.placement` and
window views resolve through memoized plans (DESIGN.md §7). These tests
check both against a fresh resolution: the copy placement against
``locate_virtual_all`` + ``DeviceBuffer.view`` element for element, and
the window views against the same view built with every memo bypassed.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import (
    locate_virtual_all,
    placement,
    read_actual,
    write_actual,
)
from repro.core.datum import from_array
from repro.device_api import views
from repro.device_api.views import WindowView
from repro.errors import DeviceError
from repro.patterns import Boundary, Window2D
from repro.sanitize.recorder import AccessRecorder
from repro.sim.memory import DeviceBuffer, DeviceMemory
from repro.utils.rect import Rect


@st.composite
def copy_cases(draw):
    """A datum shape, a buffer extent and a non-empty actual region.

    Half the extents are a single device's full-period WRAP buffer
    ``[-r, n + r)`` per dimension, where a region near an edge aliases
    into the halos; the rest are arbitrary extents, often holding the
    region nowhere.
    """
    ndim = draw(st.integers(1, 3))
    full_period = draw(st.booleans())
    shape, ext, actual = [], [], []
    for _ in range(ndim):
        n = draw(st.integers(1, 8))
        if full_period:
            r = draw(st.integers(0, 3))
            lo, hi = -r, n + r
        else:
            lo = draw(st.integers(-n - 1, n))
            hi = draw(st.integers(lo, lo + 2 * n + 2))
        b = draw(st.integers(0, n - 1))
        e = draw(st.integers(b + 1, n))
        shape.append(n)
        ext.append((lo, hi))
        actual.append((b, e))
    return tuple(shape), Rect(*ext), Rect(*actual)


class TestCopyPlacement:
    @given(copy_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=400, deadline=None)
    def test_touches_exactly_what_locate_virtual_all_touches(
        self, case, seed
    ):
        shape, extent, actual = case
        ids = np.arange(extent.size, dtype=np.int64).reshape(extent.shape)
        ref = DeviceBuffer(0, extent, ids.dtype, ids.copy())
        new = DeviceBuffer(0, extent, ids.dtype, ids.copy())
        try:
            aliases = locate_virtual_all(extent, actual, shape)
        except DeviceError as e:
            for _ in range(2):  # errors are not memoized away
                with pytest.raises(DeviceError) as got:
                    placement(extent, actual, shape)
                assert str(got.value) == str(e)
            with pytest.raises(DeviceError):
                read_actual(new, actual, shape)
            return
        assert placement(extent, actual, shape) == tuple(
            v.slices(extent.begin) for v in aliases
        )
        # Reads: the same buffer positions (every element holds its own
        # flat index), as a view rather than a copy.
        got = read_actual(new, actual, shape)
        want = ref.view(aliases[0])
        assert got.shape == want.shape
        assert (got == want).all()
        assert np.shares_memory(got, new.data)
        # Writes: every alias, and nothing else.
        values = -np.random.default_rng(seed).integers(
            1, 1000, actual.shape
        )
        write_actual(new, actual, shape, values)
        for v in aliases:
            ref.view(v)[...] = values
        assert (new.data == ref.data).all()

    def test_single_device_wrap_buffer_writes_every_halo_image(self):
        extent = Rect((-1, 9), (-1, 9))
        buf = DeviceBuffer(
            0, extent, np.dtype(np.int32), np.zeros(extent.shape, np.int32)
        )
        corner = Rect((0, 1), (0, 1))
        write_actual(buf, corner, (8, 8), 7)
        # identity, halo right, halo below, diagonal halo
        assert sorted(zip(*np.nonzero(buf.data))) == [
            (1, 1), (1, 9), (9, 1), (9, 9)
        ]
        assert read_actual(buf, corner, (8, 8)).tolist() == [[7]]
        # Reads come from the identity position, never a stale halo image
        # (the far corner's halo images precede it in product order).
        far = Rect((7, 8), (7, 8))
        write_actual(buf, far, (8, 8), 5)
        buf.data[0, 0] = buf.data[0, 8] = buf.data[8, 0] = -1
        assert read_actual(buf, far, (8, 8)).tolist() == [[5]]
        assert placement(extent, far, (8, 8))[0] == (slice(8, 9),) * 2

    def test_timing_only_buffer_raises_on_every_dispatch(self):
        extent, actual = Rect((0, 4), (0, 4)), Rect((1, 2), (0, 4))
        buf = DeviceBuffer(0, extent, np.dtype(np.float32))
        placement(extent, actual, (4, 4))  # memoized geometry
        for _ in range(2):
            with pytest.raises(DeviceError, match="timing-only"):
                read_actual(buf, actual, (4, 4))
            with pytest.raises(DeviceError, match="timing-only"):
                write_actual(buf, actual, (4, 4), 1.0)

    def test_freed_buffer_raises_on_every_dispatch(self):
        mem = DeviceMemory(1 << 20, functional=True)
        extent, actual = Rect((0, 4), (0, 4)), Rect((1, 2), (0, 4))
        buf = mem.allocate(0, extent, np.dtype(np.float32))
        write_actual(buf, actual, (4, 4), 2.0)  # memoizes the placement
        assert (read_actual(buf, actual, (4, 4)) == 2.0).all()
        mem.free(buf)
        for _ in range(2):
            with pytest.raises(DeviceError):
                read_actual(buf, actual, (4, 4))
            with pytest.raises(DeviceError):
                write_actual(buf, actual, (4, 4), 3.0)


def _unmemoized():
    """Patch every window-geometry memo with the function it wraps."""
    return mock.patch.multiple(views, **{
        name: getattr(views, name).__wrapped__
        for name in (
            "_window_rects", "_gather_plan", "_neighborhood", "_resolve_dim"
        )
    })


@st.composite
def window_cases(draw):
    """A 2-D board, its boundary and radius, and one device's row stripe
    with the buffer a real analysis would give it. Boards are at least a
    radius wide: a WRAP window reaches at most one period around."""
    dtype = draw(st.sampled_from([np.int32, np.float64]))
    boundary = draw(st.sampled_from(
        [Boundary.CLAMP, Boundary.WRAP, Boundary.ZERO]
    ))
    radius = draw(st.integers(1, 2))
    rows, cols = (draw(st.integers(radius, 10)) for _ in range(2))
    b = draw(st.integers(0, rows - 1))
    e = draw(st.integers(b + 1, rows))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if dtype is np.int32:
        board = rng.integers(0, 2, (rows, cols)).astype(np.int32)
    else:  # sums of normals are order-sensitive: bit-identity is strict
        board = rng.standard_normal((rows, cols))
    return board, boundary, radius, Rect((b, e), (0, cols))


def _build(board, boundary, radius, work_rect, recorder=None):
    c = Window2D(from_array(board, "d"), radius, boundary)
    req = c.required(board.shape, work_rect)
    buf = DeviceBuffer(
        0, req.virtual, board.dtype, np.zeros(req.virtual.shape, board.dtype)
    )
    for virtual, actual in req.pieces:
        buf.view(virtual)[...] = board[actual.slices()]
    return WindowView(c, buf, board.shape, work_rect, recorder)


def _read_all(view, radius):
    offsets = list(itertools.product(range(-radius, radius + 1), repeat=2))
    return (
        view.center().copy(),
        [view.offset(*o).copy() for o in offsets],
        view.neighborhood_sum(),
        view.neighborhood_sum(include_center=True),
    )


def _assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestWindowMemo:
    @given(window_cases())
    @settings(max_examples=200, deadline=None)
    def test_memoized_equals_fresh_resolution(self, case):
        board, boundary, radius, work_rect = case
        with _unmemoized():
            fresh = _read_all(
                _build(board, boundary, radius, work_rect), radius
            )
        for _ in range(2):  # the second pass hits every memo
            got = _read_all(_build(board, boundary, radius, work_rect), radius)
            _assert_bit_identical(got[0], fresh[0])
            for x, y in zip(got[1], fresh[1]):
                _assert_bit_identical(x, y)
            _assert_bit_identical(got[2], fresh[2])
            _assert_bit_identical(got[3], fresh[3])

    @given(window_cases())
    @settings(max_examples=100, deadline=None)
    def test_neighborhood_sum_keeps_product_order(self, case):
        board, boundary, radius, work_rect = case
        view = _build(board, boundary, radius, work_rect)
        acc = None
        for offs in itertools.product(range(-radius, radius + 1), repeat=2):
            if offs == (0, 0):
                continue
            v = view.offset(*offs)
            if acc is None:
                acc = v.copy()
            else:
                acc += v
        _assert_bit_identical(view.neighborhood_sum(), acc)

    def test_recorder_sees_all_eight_neighbour_reads(self):
        board = np.arange(64, dtype=np.int32).reshape(8, 8)
        work_rect = Rect((2, 6), (0, 8))
        center = Rect((2, 6), (0, 8))
        want = {
            center.shift(o)
            for o in itertools.product((-1, 0, 1), repeat=2) if o != (0, 0)
        }
        for _ in range(2):  # memo cold, then warm
            rec = AccessRecorder(0, work_rect)
            view = _build(board, Boundary.WRAP, 1, work_rect, recorder=rec)
            view.neighborhood_sum()
            assert rec.reads[0] == want
