"""locate_virtual_all: per-dimension placement == brute-force enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import locate_virtual_all
from repro.errors import DeviceError
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect


def brute_force(buffer, actual, datum_shape):
    """Test all 3^ndim shifted rects: the oracle for the per-dimension
    version (same candidates, identity first, the rest in product
    order)."""
    candidates = [
        actual.shift(offs)
        for offs in itertools.product(*[(-s, 0, s) for s in datum_shape])
        if buffer.rect.contains(actual.shift(offs))
    ]
    if not candidates:
        raise DeviceError("no candidate")
    candidates.sort(key=lambda r: r != actual)
    return candidates


def buf(*extent):
    return DeviceBuffer(0, Rect(*extent), np.dtype(np.float32))


@st.composite
def placements(draw):
    """A datum shape, a buffer extent and an actual region in the datum.

    Half the extents are a single device's full-period wrap buffer
    ``[-r, n + r)`` per dimension, where regions near an edge alias.
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
        b = draw(st.integers(0, n))
        e = draw(st.integers(b, n))
        shape.append(n)
        ext.append((lo, hi))
        actual.append((b, e))
    return tuple(shape), buf(*ext), Rect(*actual)


class TestLocateVirtualAll:
    @given(placements())
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force_enumeration(self, case):
        shape, buffer, actual = case
        try:
            expect = brute_force(buffer, actual, shape)
        except DeviceError:
            with pytest.raises(DeviceError, match="maps to no virtual"):
                locate_virtual_all(buffer.rect, actual, shape)
            return
        assert locate_virtual_all(buffer.rect, actual, shape) == expect

    def test_single_device_wrap_buffer_aliases_identity_first(self):
        # 8x8 datum, one device holding rows and columns [-1, 9).
        b = buf((-1, 9), (-1, 9))
        corner = Rect((0, 1), (0, 1))
        got = locate_virtual_all(b.rect, corner, (8, 8))
        assert got == [
            corner,                   # identity
            Rect((0, 1), (8, 9)),     # halo image right
            Rect((8, 9), (0, 1)),     # halo image below
            Rect((8, 9), (8, 9)),     # diagonal image
        ]

    def test_halo_only_placement(self):
        # A multi-device slab: rows [-1, 3) of a 16-row wrapped datum.
        b = buf((-1, 3), (0, 16))
        assert locate_virtual_all(b.rect, Rect((15, 16), (0, 16)), (16, 16)) == [
            Rect((-1, 0), (0, 16))
        ]

    def test_no_candidate_raises(self):
        b = buf((-1, 3), (0, 16))
        with pytest.raises(DeviceError, match="maps to no virtual"):
            locate_virtual_all(b.rect, Rect((8, 9), (0, 16)), (16, 16))
