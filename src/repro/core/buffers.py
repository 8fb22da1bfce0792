"""Helpers mapping between actual datum coordinates and per-device buffer
(virtual) coordinates.

Device buffers cover the analyzer's bounding box in *virtual* coordinates,
which may extend beyond the datum for WRAP halos (e.g. rows ``[-1, 2049)``
of an 8192-row matrix). An instance of actual rows ``[8191, 8192)`` then
lives at virtual rows ``[-1, 0)``. :func:`locate_virtual_all` finds the
virtual positions of an actual region within a buffer.

The answer depends only on geometry, so :func:`placement` memoizes it as
buffer-local slice tuples: a copy payload then costs plain numpy slicing
(DESIGN.md §7). A regrown, re-slabbed or reallocated buffer has a
different extent and therefore a different key; nothing is invalidated.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from repro.errors import DeviceError
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect


def locate_virtual_all(
    extent: Rect, actual: Rect, datum_shape: Sequence[int]
) -> list[Rect]:
    """All virtual rects inside a buffer covering ``extent`` that hold
    actual region ``actual``, identity position first.

    With two or more devices each buffer covers less than a full wrapped
    dimension, so exactly one candidate exists. A *single-device* wrap
    buffer (reachable when fault recovery degrades the node to one
    survivor) spans the datum plus halos, so a region near a wrapped edge
    aliases: it lives at its identity position *and* as a halo image.
    Writers must update every alias; readers use the identity position,
    which kernel writes keep current.

    Containment is separable, so the fitting shifts among ``(-n, 0, n)``
    are found per dimension and their product taken, in product order,
    rather than testing all 3^ndim shifted rects.
    """
    if actual.empty:  # an empty region fits at every shift
        fits = [(-s, 0, s) for s in datum_shape]
    else:
        fits = [
            [o for o in (-s, 0, s)
             if ext.begin <= iv.begin + o and iv.end + o <= ext.end]
            for iv, ext, s in zip(
                actual.intervals, extent.intervals, datum_shape
            )
        ]
    candidates = [actual.shift(offs) for offs in itertools.product(*fits)]
    if not candidates:
        raise DeviceError(
            f"actual region {actual} maps to no virtual position in "
            f"buffer extent {extent} (datum shape "
            f"{tuple(datum_shape)})"
        )
    candidates.sort(key=lambda r: r != actual)
    return candidates


@functools.lru_cache(maxsize=4096)
def placement(
    extent: Rect, actual: Rect, datum_shape: tuple[int, ...]
) -> tuple[tuple[slice, ...], ...]:
    """Buffer-local slice tuples of every alias of ``actual`` in a buffer
    covering ``extent``, in :func:`locate_virtual_all` order (identity
    position first).

    Pure in its arguments, so memoized: steady-state copies move the
    same regions between the same extents on every invocation. Every
    alias lies inside ``extent`` by construction, which is the
    containment check :meth:`DeviceBuffer.view` would repeat.
    """
    origin = extent.begin
    return tuple(
        v.slices(origin) for v in locate_virtual_all(extent, actual, datum_shape)
    )


def read_actual(
    buffer: DeviceBuffer, actual: Rect, datum_shape: tuple[int, ...]
) -> np.ndarray:
    """View of actual region ``actual`` at its canonical (identity-first)
    position in ``buffer``."""
    return buffer.array()[placement(buffer.rect, actual, datum_shape)[0]]


def write_actual(
    buffer: DeviceBuffer, actual: Rect, datum_shape: tuple[int, ...],
    values,
) -> None:
    """Store ``values`` into every alias of actual region ``actual`` in
    ``buffer``: a single-device wrap buffer may hold the region both at
    its identity position and as a halo image, and writing all of them
    keeps the buffer from disagreeing with itself."""
    data = buffer.array()
    for sl in placement(buffer.rect, actual, datum_shape):
        data[sl] = values
