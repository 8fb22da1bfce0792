"""Device-level view tests: window semantics, outputs, scalar equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datum import Matrix, Vector, from_array
from repro.device_api import (
    aligned,
    make_view,
    maps_foreach,
    maps_foreach_reductive,
)
from repro.device_api.views import (
    ReductiveStaticView,
    StructuredInjectiveView,
    WindowView,
)
from repro.errors import DeviceError
from repro.hardware import GTX_780
from repro.patterns import (
    WRAP,
    Boundary,
    ReductiveStatic,
    StructuredInjective,
    Window1D,
    Window2D,
)
from repro.sim import SimNode
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect


def make_window_view(data, work_rect, radius=1, boundary=WRAP):
    """Build a WindowView over a filled device buffer (single device)."""
    datum = from_array(data, "d")
    node = SimNode(GTX_780, 1, functional=True)
    c = Window2D(datum, radius, boundary)
    req = c.required(data.shape, work_rect)
    # Allocate a buffer covering the requirement and fill it as the
    # framework's copies would.
    buf = node.devices[0].memory.allocate(0, req.virtual, data.dtype)
    for virtual, actual in req.pieces:
        buf.view(virtual)[...] = data[actual.slices()]
    return WindowView(c, buf, data.shape, work_rect)


def full_rect(shape):
    return Rect.from_shape(shape)


class TestWindowView:
    def test_center_matches_segment(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((2, 6), (0, 8)))
        assert (w.center() == data[2:6]).all()

    def test_offsets_interior(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((2, 6), (0, 8)))
        assert (w.offset(-1, 0) == data[1:5]).all()
        assert (w.offset(1, 0) == data[3:7]).all()

    def test_wrap_columns(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((2, 6), (0, 8)), boundary=WRAP)
        assert (w.offset(0, -1) == np.roll(data, 1, axis=1)[2:6]).all()
        assert (w.offset(0, 1) == np.roll(data, -1, axis=1)[2:6]).all()

    def test_wrap_rows_through_halo(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((0, 4), (0, 8)), boundary=WRAP)
        assert (w.offset(-1, 0)[0] == data[7]).all()

    def test_clamp_rows(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(
            data, Rect((0, 4), (0, 8)), boundary=Boundary.CLAMP
        )
        assert (w.offset(-1, 0)[0] == data[0]).all()

    def test_zero_rows(self):
        data = np.ones((8, 8), np.float32)
        w = make_window_view(
            data, Rect((0, 4), (0, 8)), boundary=Boundary.ZERO
        )
        assert (w.offset(-1, 0)[0] == 0).all()

    def test_offset_exceeding_radius(self):
        data = np.ones((8, 8), np.float32)
        w = make_window_view(data, Rect((2, 6), (0, 8)), radius=1)
        with pytest.raises(DeviceError):
            w.offset(2, 0)

    def test_offset_arity(self):
        data = np.ones((8, 8), np.float32)
        w = make_window_view(data, Rect((2, 6), (0, 8)))
        with pytest.raises(DeviceError):
            w.offset(1)

    def test_neighborhood_sum_equals_manual(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 5, (8, 8)).astype(np.int32)
        w = make_window_view(data, full_rect((8, 8)), boundary=WRAP)
        manual = sum(
            np.roll(np.roll(data, -dy, 0), -dx, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dy, dx) != (0, 0)
        )
        assert (w.neighborhood_sum() == manual).all()

    @given(st.integers(0, 2), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_offsets_match_padded_reference(self, radius, row0, data):
        rows = data.draw(st.integers(1, 8 - row0))
        rng = np.random.default_rng(42)
        arr = rng.integers(0, 100, (8, 8)).astype(np.int32)
        w = make_window_view(
            arr, Rect((row0, row0 + rows), (0, 8)), radius=radius,
            boundary=WRAP,
        )
        padded = np.pad(arr, radius, mode="wrap")
        for dy in (-radius, 0, radius):
            for dx in (-radius, 0, radius):
                ref = padded[
                    radius + row0 + dy : radius + row0 + rows + dy,
                    radius + dx : radius + 8 + dx,
                ]
                assert (w.offset(dy, dx) == ref).all()


class TestReadOnlyWindows:
    """A window may alias the device buffer (zero-copy slice), so kernels
    must not be able to write through it."""

    def test_writing_into_center_raises_and_buffer_is_unchanged(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(
            data, Rect((2, 6), (0, 8)), radius=0,
            boundary=Boundary.NO_CHECKS,
        )
        # A zero-radius window is one ascending run in every dimension:
        # the window is the device buffer itself, not a copy.
        assert np.shares_memory(w.center(), w._buffer.data)
        before = w._buffer.data.copy()
        with pytest.raises(ValueError):
            w.center()[...] = -1.0
        assert (w._buffer.data == before).all()

    def test_copied_windows_are_read_only_too(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((2, 6), (0, 8)), boundary=WRAP)
        with pytest.raises(ValueError):
            w.offset(0, 1)[0, 0] = -1.0
        total = w.neighborhood_sum()
        total += 1  # results computed from windows are the kernel's own


def _oracle_gather(buffer, shape, boundary, want, lenient):
    """The per-element resolver ``WindowView._gather`` used to be: the
    reference the vectorized resolution must match position for position.

    Returns ``(values, zero_masks)``; raises DeviceError like the view.
    """
    arr = buffer.view(buffer.rect)
    index_lists, zero_masks = [], []
    for d in range(want.ndim):
        lo, hi = buffer.rect[d].begin, buffer.rect[d].end
        n = shape[d]
        idxs = np.empty(want[d].size, dtype=np.int64)
        mask = np.zeros(want[d].size, dtype=bool)
        for i, v in enumerate(range(want[d].begin, want[d].end)):
            pos = None
            if boundary is Boundary.WRAP:
                cands = sorted((v, v - n, v + n), key=lambda c: not 0 <= c < n)
                for cand in cands:
                    if lo <= cand < hi:
                        pos = cand - lo
                        break
            elif boundary is Boundary.CLAMP:
                c = min(max(v, 0), n - 1)
                if lo <= c < hi:
                    pos = c - lo
            else:  # ZERO / NO_CHECKS
                if 0 <= v < n and lo <= v < hi:
                    pos = v - lo
                else:
                    pos = 0
                    mask[i] = True
            if pos is None:
                if lenient:
                    pos = 0
                    mask[i] = True
                else:
                    raise DeviceError(
                        f"window position {v} (dim {d}) has no backing "
                        f"data in buffer extent {buffer.rect} "
                        f"(boundary {boundary.value})"
                    )
            idxs[i] = pos
        index_lists.append(idxs)
        zero_masks.append(mask)
    out = arr
    for d, idxs in enumerate(index_lists):
        out = np.take(out, idxs, axis=d)
    out = out.copy()
    for d, m in enumerate(zero_masks):
        sl = [slice(None)] * want.ndim
        sl[d] = m
        out[tuple(sl)] = 0
    return out, zero_masks


@st.composite
def _gather_cases(draw):
    """A datum shape, a buffer extent over it and a wanted rect.

    Extents reach well past the datum on both sides, so every WRAP
    candidate order, CLAMP/ZERO edges and unbacked positions occur. One
    case in four is a single device's full-period WRAP buffer
    ``[-r, n + r)`` whose halo images hold values that differ from the
    identity positions (stale, as after fault recovery grew the buffer).
    """
    ndim = draw(st.integers(1, 2))
    shape, ext, want = [], [], []
    full_period = draw(st.integers(0, 3)) == 0
    for _ in range(ndim):
        n = draw(st.integers(1, 7))
        if full_period:
            r = draw(st.integers(0, 2))
            lo, hi = -r, n + r
        else:
            lo = draw(st.integers(-n - 2, n + 1))
            hi = draw(st.integers(lo + 1, lo + 2 * n + 4))
        begin = draw(st.integers(-2 * n - 2, 2 * n + 2))
        end = begin + draw(st.integers(0, 2 * n + 4))
        shape.append(n)
        ext.append((lo, hi))
        want.append((begin, end))
    return tuple(shape), Rect(*ext), Rect(*want)


class TestGatherDifferential:
    """Vectorized ``_gather`` == the per-element oracle, bit for bit."""

    @given(
        _gather_cases(),
        st.sampled_from(list(Boundary)),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_per_element_oracle(self, case, boundary, lenient, seed):
        shape, extent, want = case
        rng = np.random.default_rng(seed)
        # Nonzero contents: a zero in the result is a synthesized one.
        data = rng.integers(1, 100, extent.shape).astype(np.int32)
        buffer = DeviceBuffer(0, extent, data.dtype, data)
        window = Window1D if len(shape) == 1 else Window2D
        view = WindowView.__new__(WindowView)
        view.container = window(
            from_array(np.zeros(shape, np.int32), "d"), 0, boundary
        )
        view._buffer = buffer
        view._shape = shape

        try:
            expect, masks = _oracle_gather(
                buffer, shape, boundary, want, lenient
            )
        except DeviceError as e:
            with pytest.raises(DeviceError) as got:
                view._gather(want, lenient)
            assert str(got.value) == str(e)
            return
        out = view._gather(want, lenient)
        assert out.shape == expect.shape
        assert out.dtype == expect.dtype
        assert (out == expect).all()
        zero_filled = np.zeros(want.shape, dtype=bool)
        for d, m in enumerate(masks):
            sl = [slice(None)] * want.ndim
            sl[d] = m
            zero_filled[tuple(sl)] = True
        assert ((out == 0) == zero_filled).all()
        assert not out.flags.writeable
        assert (buffer.data == data).all()


class _ViewHarness:
    """Builds matched input/output views over a single simulated device."""

    def __init__(self, data, radius=1, boundary=WRAP, bins=None):
        self.data = data
        self.node = SimNode(GTX_780, 1, functional=True)
        self.in_datum = from_array(data, "in")
        self.win = Window2D(self.in_datum, radius, boundary)
        work = data.shape
        wr = full_rect(work)
        req = self.win.required(work, wr)
        in_buf = self.node.devices[0].memory.allocate(
            0, req.virtual, data.dtype
        )
        for virtual, actual in req.pieces:
            in_buf.view(virtual)[...] = data[actual.slices()]
        self.in_view = WindowView(self.win, in_buf, work, wr)
        if bins is None:
            self.out_datum = Matrix(*data.shape, np.int32, "out")
            c = StructuredInjective(self.out_datum)
            out_buf = self.node.devices[0].memory.allocate(
                0, c.owned(work, wr), np.dtype(np.int32)
            )
            self.out_view = StructuredInjectiveView(c, out_buf, work, wr)
        else:
            self.out_datum = Vector(bins, np.int64, "hist")
            c = ReductiveStatic(self.out_datum)
            out_buf = self.node.devices[0].memory.allocate(
                0, Rect.from_shape((bins,)), np.dtype(np.int64)
            )
            self.out_view = ReductiveStaticView(c, out_buf, work, wr)


class TestScalarVectorizedEquivalence:
    """The MAPS_FOREACH scalar semantics must match the vectorized views."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gol_scalar_equals_vectorized(self, seed):
        rng = np.random.default_rng(seed)
        board = (rng.random((6, 6)) < 0.4).astype(np.int32)

        hv = _ViewHarness(board)
        n = hv.in_view.neighborhood_sum()
        c = hv.in_view.center()
        vec = ((n == 3) | ((c == 1) & (n == 2))).astype(np.int32)

        hs = _ViewHarness(board)
        for it in maps_foreach(hs.out_view):
            win = aligned(hs.in_view, it)
            live = sum(v for v in win) - win.value
            it.set(1 if live == 3 or (win.value == 1 and live == 2) else 0)
        assert (hs.out_view.array == vec).all()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_histogram_scalar_equals_vectorized(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 8, (6, 6)).astype(np.int32)

        hv = _ViewHarness(img, radius=0, boundary=Boundary.NO_CHECKS, bins=8)
        hv.out_view.add_at(hv.in_view.center())
        vec = hv.out_view.partial.copy()

        hs = _ViewHarness(img, radius=0, boundary=Boundary.NO_CHECKS, bins=8)
        for it, acc in maps_foreach_reductive(hs.out_view, hs.in_view):
            it.add(int(acc.value))
        assert (hs.out_view.partial == vec).all()
        assert vec.sum() == img.size


class TestOutputViews:
    def test_structured_write_shape_check(self):
        hv = _ViewHarness(np.zeros((4, 4), np.int32))
        with pytest.raises(DeviceError):
            hv.out_view.write(np.zeros((3, 3), np.int32))

    def test_commit_flag(self):
        hv = _ViewHarness(np.zeros((4, 4), np.int32))
        assert not hv.out_view.committed
        hv.out_view.commit()
        assert hv.out_view.committed

    def test_reductive_weights(self):
        hv = _ViewHarness(
            np.zeros((4, 4), np.int32), radius=0,
            boundary=Boundary.NO_CHECKS, bins=4,
        )
        hv.out_view.add_at(
            np.array([0, 1, 1, 3]), weights=np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert list(hv.out_view.partial) == [1, 5, 0, 4]

    def test_reductive_max_requires_max_container(self):
        hv = _ViewHarness(
            np.zeros((4, 4), np.int32), radius=0,
            boundary=Boundary.NO_CHECKS, bins=4,
        )
        with pytest.raises(DeviceError):
            hv.out_view.max_at(np.array([0]), np.array([1]))
