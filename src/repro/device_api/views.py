"""Device-level container views: index-free data access for kernels.

These are the Python analogue of the paper's device-level containers
(Fig. 1b): kernels never compute global indices; they read inputs through
pattern-shaped accessors (window neighborhoods, block stripes) and write
outputs through injective arrays or reductive aggregators.

Views operate on whole device segments with numpy (the vectorized
"bulk-synchronous thread-block" execution mode); the scalar reference
iterators of :mod:`repro.device_api.foreach` provide the literal
one-thread-at-a-time semantics for validation.

Sanitize mode (DESIGN.md §9): every view optionally carries an
:class:`~repro.sanitize.recorder.AccessRecorder`. With a recorder present,
views report the element regions they actually resolve — and accesses the
framework would normally reject outright (a window offset beyond the
declared radius) resolve leniently instead of raising, so the sanitizer
can observe, classify and report the violation with full context.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

import numpy as np

from repro.errors import DeviceError, PatternMismatchError
from repro.patterns.base import InputContainer
from repro.patterns.boundary import Boundary
from repro.patterns.input_patterns import (
    Block2D,
    Block2DTransposed,
    BlockColumnStriped,
    BlockStriped,
    FullReplicationInput,
    WindowND,
)
from repro.patterns.output_patterns import (
    InjectiveColumnStriped,
    InjectiveStriped,
    ReductiveDynamic,
    ReductiveStatic,
    StructuredInjective,
    UnstructuredInjective,
    IrregularOutput,
)
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect


class _Recording:
    """Mixin wiring a view to an optional access recorder."""

    _recorder = None
    _rec_index: int = 0

    def _attach(self, recorder, index: int) -> None:
        self._recorder = recorder
        self._rec_index = index

    def _note_read(self, rect: Rect) -> None:
        if self._recorder is not None:
            self._recorder.record_read(self._rec_index, rect)

    def _note_write(self, rect: Rect) -> None:
        if self._recorder is not None:
            self._recorder.record_write(self._rec_index, rect)


@functools.lru_cache(maxsize=1024)
def _resolve_dim(
    begin: int, end: int, lo: int, hi: int, n: int,
    boundary: Boundary, lenient: bool,
) -> tuple[tuple[slice, ...], Optional[np.ndarray], Optional[int]]:
    """Resolve window positions ``[begin, end)`` of one dimension (datum
    extent ``n``) into a buffer covering virtual ``[lo, hi)``.

    Each position maps to a buffer position, computed with numpy over
    the ``arange`` of wanted positions:

    * WRAP tries ``v``, ``v - n`` and ``v + n``, the in-datum (identity)
      candidate first and the rest in that order; the first candidate
      inside the buffer wins. Kernel writes and copies keep the identity
      position current, while a halo image the buffer happens to retain
      (e.g. after fault recovery grew a lone survivor's buffer to a full
      period) may be stale: the analyzer plans no halo copies when a
      device holds the whole dimension.
    * CLAMP maps to the nearest in-datum position.
    * ZERO/NO_CHECKS read in-datum positions directly and synthesize
      zeros everywhere else.

    Returns ``(runs, mask, unbacked)``: the buffer-local slices whose
    concatenation yields the positions (one slice when they are a single
    ascending run; a run moves as a block instead of element by
    element), the mask of positions to zero-fill (``None`` if none), and
    the first position with no backing data when strict resolution
    fails (``None`` otherwise). The answer depends only on the
    arguments, and steady-state kernels build the same windows on every
    invocation, so it is memoized; the mask is read-only.
    """
    if begin == end:
        return (slice(0, 0),), None, None
    v = np.arange(begin, end)
    if boundary is Boundary.WRAP:
        below, above = v - n, v + n
        in_below = (below >= 0) & (below < n)
        in_above = (above >= 0) & (above < n)
        cands = (
            np.where(in_below, below, np.where(in_above, above, v)),
            np.where(in_below | in_above, v, below),
            np.where(in_above, below, above),
        )
    elif boundary is Boundary.CLAMP:
        cands = (np.clip(v, 0, n - 1),)
    else:  # ZERO / NO_CHECKS
        cands = (np.where((v >= 0) & (v < n), v, lo - 1),)
    pos = np.full(v.size, -1, dtype=np.int64)
    for c in reversed(cands):  # the first fitting candidate wins
        fits = (c >= lo) & (c < hi)
        pos[fits] = c[fits] - lo
    mask = pos < 0
    if not mask.any():
        mask = None
    elif lenient or boundary in (Boundary.ZERO, Boundary.NO_CHECKS):
        pos[mask] = 0
        mask.flags.writeable = False
    else:
        return (), None, int(v[mask][0])
    edges = [0, *(np.flatnonzero(np.diff(pos) != 1) + 1).tolist(), v.size]
    runs = tuple(
        slice(int(pos[a]), int(pos[a]) + b - a)
        for a, b in zip(edges, edges[1:])
    )
    return runs, mask, None


@functools.lru_cache(maxsize=1024)
def _window_rects(
    work_shape: tuple[int, ...], datum_shape: tuple[int, ...],
    work_rect: Rect, radius: tuple[int, ...],
) -> tuple[Rect, Rect]:
    """A window's center rect (its work rect scaled to datum
    coordinates) and its radius-padded rect."""
    center = Rect(*[
        (iv.begin * (n // w), iv.end * (n // w))
        for iv, w, n in zip(work_rect.intervals, work_shape, datum_shape)
    ])
    return center, center.expand(list(radius))


@functools.lru_cache(maxsize=1024)
def _gather_plan(
    want: Rect, extent: Rect, datum_shape: tuple[int, ...],
    boundary: Boundary, lenient: bool,
) -> tuple[tuple, tuple, tuple]:
    """How :meth:`WindowView._gather` materializes ``want`` from a buffer
    covering ``extent``: the basic index into the buffer, the
    ``(dim, runs)`` to concatenate and the ``(dim, mask)`` to zero-fill,
    from :func:`_resolve_dim` per dimension."""
    index: list[slice] = []
    split: list[tuple[int, tuple[slice, ...]]] = []
    zero_masks: list[tuple[int, np.ndarray]] = []
    for d, (iv, ext, n) in enumerate(
        zip(want.intervals, extent.intervals, datum_shape)
    ):
        runs, mask, unbacked = _resolve_dim(
            iv.begin, iv.end, ext.begin, ext.end, n, boundary, lenient
        )
        if unbacked is not None:
            raise DeviceError(
                f"window position {unbacked} (dim {d}) has no backing "
                f"data in buffer extent {extent} "
                f"(boundary {boundary.value})"
            )
        if mask is None and len(runs) == 1:
            index.append(runs[0])
            continue
        index.append(slice(None))
        split.append((d, runs))
        if mask is not None:
            zero_masks.append((d, mask))
    return tuple(index), tuple(split), tuple(zero_masks)


@functools.lru_cache(maxsize=256)
def _neighborhood(
    radius: tuple[int, ...], center_shape: tuple[int, ...],
    include_center: bool,
) -> tuple[tuple[tuple[int, ...], tuple[slice, ...]], ...]:
    """``(offsets, slices into the padded window)`` of every neighbor,
    in ``itertools.product`` order."""
    return tuple(
        (offs, tuple(
            slice(r + o, r + o + size)
            for o, r, size in zip(offs, radius, center_shape)
        ))
        for offs in itertools.product(*[range(-r, r + 1) for r in radius])
        if include_center or any(offs)
    )


class WindowView(_Recording):
    """Neighborhood access for Window (ND) inputs.

    ``center()`` is the device's own region; ``offset(o1, ..., oN)`` is
    the same-shaped region shifted by the given per-dimension offsets
    (|o_d| <= radius_d) — the vectorized equivalent of the paper's
    relative-coordinate iterator access.

    All geometry (the window's rects, the gather plan, the neighbor
    slices) is memoized on its arguments, so a steady-state launch only
    slices numpy arrays.
    """

    def __init__(
        self,
        container: WindowND,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.radius = container.radius
        self._shape = container.datum.shape
        self.center_rect, padded = _window_rects(
            tuple(work_shape), self._shape, work_rect, self.radius
        )
        self._attach(recorder, index)
        self._buffer = buffer
        self._center_shape = self.center_rect.shape
        self._padded = self._gather(padded, lenient=False)

    def _gather(self, want: Rect, lenient: bool) -> np.ndarray:
        """Materialize an arbitrary virtual-coordinate rect from the buffer.

        Each dimension is resolved on its own by :func:`_resolve_dim`
        into runs of buffer positions (the whole plan is memoized by
        :func:`_gather_plan`). A dimension that resolves to one
        ascending run is indexed with a basic slice; every other
        dimension costs one ``np.concatenate`` of block slices. When
        every dimension slices, the result is a zero-copy view of the
        buffer, so the result is always read-only. Positions with no
        backing data raise DeviceError, except in ``lenient`` (sanitize)
        mode, where they resolve to zeros so the access can be recorded
        and reported instead of aborting the kernel.
        """
        buffer = self._buffer
        index, split, zero_masks = _gather_plan(
            want, buffer.rect, self._shape, self.container.boundary, lenient
        )
        out = buffer.array()[index]
        for d, runs in split:
            head = (slice(None),) * d
            out = np.concatenate([out[head + (run,)] for run in runs], axis=d)
        for d, mask in zero_masks:
            out[(slice(None),) * d + (mask,)] = 0
        out.flags.writeable = False
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.center_rect.shape

    def center(self) -> np.ndarray:
        return self.offset(*([0] * self.center_rect.ndim))

    def offset(self, *offsets: int) -> np.ndarray:
        """The center-shaped region shifted by per-dimension offsets."""
        radius = self.radius
        if len(offsets) != len(radius):
            raise DeviceError(
                f"offset needs {self.center_rect.ndim} components"
            )
        over = any(abs(off) > r for off, r in zip(offsets, radius))
        if over or self._recorder is not None:
            want = self.center_rect.shift(list(offsets))
            self._note_read(want)
        if over:
            if self._recorder is None:
                d, off = next(
                    (d, o) for d, (o, r)
                    in enumerate(zip(offsets, self.radius)) if abs(o) > r
                )
                raise DeviceError(
                    f"offset {off} exceeds window radius {self.radius[d]} "
                    f"in dim {d}"
                )
            # Sanitize mode: record the over-radius access (the checker
            # turns the flag into an OutOfPatternReadError) and resolve it
            # leniently so execution continues.
            from repro.sanitize.recorder import AccessFlag

            self._recorder.flag(AccessFlag(
                kind="over-radius-read",
                container_index=self._rec_index,
                rect=want,
                declared=self.center_rect.expand(list(self.radius)),
                detail=(
                    f"offsets {tuple(offsets)} exceed declared window "
                    f"radius {self.radius}"
                ),
            ))
            return self._gather(want, lenient=True)
        return self._padded[tuple(
            slice(r + off, r + off + size)
            for off, r, size in zip(offsets, radius, self._center_shape)
        )]

    def neighborhood_sum(self, include_center: bool = False) -> np.ndarray:
        """Sum over the full window (minus the center unless requested) —
        a convenience for stencil kernels like the Game of Life."""
        recording = self._recorder is not None
        padded = self._padded
        acc = None
        for offs, sl in _neighborhood(
            self.radius, self._center_shape, include_center
        ):
            if recording:
                self._note_read(self.center_rect.shift(offs))
            v = padded[sl]
            if acc is None:
                acc = v.copy()
            else:
                acc += v
        if acc is None:
            acc = self.center().copy()
        return acc


class BlockView(_Recording):
    """Row-stripe access for Block (2D) inputs (e.g. GEMM's first operand)."""

    def __init__(
        self,
        container: Block2D,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = container.required(work_shape, work_rect).virtual
        self._arr = buffer.view(self.rect)
        self._attach(recorder, index)

    @property
    def stripe(self) -> np.ndarray:
        """This device's rows of the matrix."""
        self._note_read(self.rect)
        return self._arr


class FullView(_Recording):
    """Whole-datum access for fully-replicated inputs (Block 1D/2D-T,
    Adjacency, Traversal, Permutation, Irregular)."""

    def __init__(
        self,
        container: InputContainer,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = container.required(work_shape, work_rect).virtual
        self._arr = buffer.view(self.rect)
        self._attach(recorder, index)

    @property
    def array(self) -> np.ndarray:
        self._note_read(self.rect)
        return self._arr


class StructuredInjectiveView(_Recording):
    """Write access to the device's exact output segment.

    ``array`` is the segment; assigning into it is the vectorized
    equivalent of ``*iter = value``. ``commit()`` marks the coalesced
    write-back performed by the device-level aggregator (§4.5.2); the cost
    model accounts for it, and kernels are expected to call it.
    """

    def __init__(
        self,
        container: StructuredInjective,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = container.owned(work_shape, work_rect)
        self._arr = buffer.view(self.rect)
        self.committed = False
        self._attach(recorder, index)

    @property
    def array(self) -> np.ndarray:
        return self._arr

    def write(self, values: np.ndarray) -> None:
        if values.shape != self._arr.shape:
            raise DeviceError(
                f"output shape {values.shape} != segment shape "
                f"{self._arr.shape}"
            )
        self._note_write(self.rect)
        self._arr[...] = values

    def write_element(self, local: tuple[int, ...], value) -> None:
        """Single-element write (the scalar foreach iterator path)."""
        if self._recorder is not None:
            origin = self.rect.begin
            self._note_write(Rect(*[
                (o + p, o + p + 1) for o, p in zip(origin, local)
            ]))
        self._arr[local] = value

    def commit(self) -> None:
        self.committed = True


class ReductiveStaticView(_Recording):
    """Per-device partial accumulator for Reductive (Static) outputs.

    ``partial`` is the device-private duplicate (e.g. a 256-bin histogram);
    ``add_at`` performs the shared-memory-aggregator equivalent of
    ``hist_iter[bin] += w`` over arrays of bins.
    """

    def __init__(
        self,
        container: ReductiveStatic,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = Rect.from_shape(container.datum.shape)
        self._arr = buffer.view(self.rect)
        self.committed = False
        self._attach(recorder, index)

    @property
    def partial(self) -> np.ndarray:
        self._note_write(self.rect)
        return self._arr

    def _check_bins(
        self, indices: np.ndarray, weights: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Validate bin indices against the datum extent.

        Out-of-range bins would corrupt adjacent memory on a GPU (or crash
        the bincount here); in sanitize mode they are flagged as
        out-of-region writes and dropped so execution continues.
        """
        idx = np.asarray(indices).reshape(-1)
        flat_w = None if weights is None else np.asarray(weights).reshape(-1)
        size = self.rect.size
        bad = (idx < 0) | (idx >= size)
        if not bad.any():
            return idx, flat_w
        if self._recorder is None:
            raise DeviceError(
                f"reduction index {int(idx[bad][0])} outside output extent "
                f"[0, {size})"
            )
        from repro.sanitize.recorder import AccessFlag

        offenders = idx[bad]
        self._recorder.flag(AccessFlag(
            kind="oob-write-index",
            container_index=self._rec_index,
            rect=Rect((int(offenders.min()), int(offenders.max()) + 1)),
            declared=Rect((0, size)),
            detail=f"{offenders.size} reduction indices out of range",
        ))
        keep = ~bad
        return idx[keep], None if flat_w is None else flat_w[keep]

    def add_at(self, indices: np.ndarray, weights: np.ndarray | None = None) -> None:
        if self.container.op != "sum":
            raise DeviceError("add_at requires a sum-reduction container")
        flat = self._arr.reshape(-1)
        idx, w = self._check_bins(indices, weights)
        self._note_write(self.rect)
        if w is None:
            counts = np.bincount(idx, minlength=flat.size)
        else:
            counts = np.bincount(idx, weights=w, minlength=flat.size)
        flat += counts.astype(flat.dtype, copy=False)

    def max_at(self, indices: np.ndarray, values: np.ndarray) -> None:
        if self.container.op != "max":
            raise DeviceError("max_at requires a max-reduction container")
        flat = self._arr.reshape(-1)
        idx, vals = self._check_bins(indices, values)
        self._note_write(self.rect)
        np.maximum.at(flat, idx, vals)

    def commit(self) -> None:
        self.committed = True


class DynamicOutputView(_Recording):
    """Append-only output for Reductive (Dynamic) / Irregular patterns.

    Each device appends a runtime-determined number of elements; the
    host-level aggregator later concatenates per-device prefixes in device
    order (§3.2: "the aggregation process appends the results from each
    GPU to a single output array").
    """

    def __init__(
        self,
        container: ReductiveDynamic | IrregularOutput,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = Rect.from_shape(container.datum.shape)
        self._arr = buffer.view(self.rect)
        self._buffer = buffer
        buffer.dynamic_count = 0  # type: ignore[attr-defined]
        self._attach(recorder, index)

    @property
    def capacity(self) -> int:
        return self._arr.shape[0]

    @property
    def count(self) -> int:
        return self._buffer.dynamic_count  # type: ignore[attr-defined]

    def append(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        n = values.shape[0]
        c = self.count
        if c + n > self.capacity:
            if self._recorder is None:
                raise DeviceError(
                    f"dynamic output overflow: {c}+{n} > capacity "
                    f"{self.capacity}"
                )
            from repro.sanitize.recorder import AccessFlag

            self._recorder.flag(AccessFlag(
                kind="append-overflow",
                container_index=self._rec_index,
                rect=Rect((c, c + n)),
                declared=self.capacity,
                detail=(
                    f"append of {n} elements at count {c} overflows the "
                    f"declared capacity {self.capacity}"
                ),
            ))
            n = self.capacity - c  # keep what fits; the checker reports
            values = values[:n]
            if n <= 0:
                return
        if self._recorder is not None:
            self._recorder.record_append(self._rec_index, n)
        self._arr[c : c + n] = values
        self._buffer.dynamic_count = c + n  # type: ignore[attr-defined]


class UnstructuredInjectiveView(_Recording):
    """Scatter-write access for Unstructured Injective outputs.

    The device-private duplicate is zero-initialized; ``scatter`` writes
    values at arbitrary flat indices. Disjointness across devices is the
    pattern's contract (injectivity); the post-kernel aggregation sums the
    duplicates.
    """

    def __init__(
        self,
        container: UnstructuredInjective,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = Rect.from_shape(container.datum.shape)
        self._arr = buffer.view(self.rect)
        self._attach(recorder, index)

    @property
    def duplicate(self) -> np.ndarray:
        return self._arr

    def scatter(self, flat_indices: np.ndarray, values: np.ndarray) -> None:
        flat = self._arr.reshape(-1)
        idx = np.asarray(flat_indices).reshape(-1)
        vals = np.asarray(values).reshape(-1)
        bad = (idx < 0) | (idx >= flat.size)
        if bad.any():
            # Negative indices used to wrap silently (python indexing),
            # corrupting the tail of the duplicate; both directions are
            # out-of-region writes.
            if self._recorder is None:
                raise DeviceError(
                    f"scatter index {int(idx[bad][0])} outside output "
                    f"extent [0, {flat.size})"
                )
            from repro.sanitize.recorder import AccessFlag

            offenders = idx[bad]
            self._recorder.flag(AccessFlag(
                kind="oob-write-index",
                container_index=self._rec_index,
                rect=Rect((int(offenders.min()), int(offenders.max()) + 1)),
                declared=Rect((0, flat.size)),
                detail=f"{offenders.size} scatter indices out of range",
            ))
            keep = ~bad
            idx, vals = idx[keep], vals[keep]
        if self._recorder is not None:
            self._recorder.record_scatter(self._rec_index, idx)
        flat[idx] = vals


def make_view(
    container,
    buffer: DeviceBuffer,
    work_shape: Sequence[int],
    work_rect: Rect,
    recorder: Optional[object] = None,
    index: int = 0,
):
    """Construct the device-level view matching a container's pattern.

    Args:
        container: The pattern container to build a view for.
        buffer: Device buffer holding (at least) the required region.
        work_shape: Full task work dimensions.
        work_rect: This device's share of the work space.
        recorder: Optional :class:`~repro.sanitize.recorder.AccessRecorder`
            — when present, the view records its accesses and resolves
            normally-fatal out-of-pattern accesses leniently.
        index: The container's index in the task's container tuple (used
            to attribute recorded accesses).
    """
    if isinstance(container, WindowND):
        return WindowView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, Block2D):
        return BlockView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(
        container, (Block2DTransposed, BlockStriped, BlockColumnStriped, FullReplicationInput)
    ):
        return FullView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, (StructuredInjective, InjectiveStriped, InjectiveColumnStriped)):
        return StructuredInjectiveView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, ReductiveStatic):
        return ReductiveStaticView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, (ReductiveDynamic, IrregularOutput)):
        return DynamicOutputView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, UnstructuredInjective):
        return UnstructuredInjectiveView(container, buffer, work_shape, work_rect, recorder, index)
    raise PatternMismatchError(
        f"no device-level view for container type {type(container).__name__}"
    )
