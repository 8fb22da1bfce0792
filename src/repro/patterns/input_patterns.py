"""Input memory access patterns (paper Table 1).

Each pattern class answers: *given a device's share of the work space,
which datum region must be resident on that device?* Patterns with spatial
correlation (Block 2D, Window ND) return stripes/halos; patterns without
useful locality (Block 1D, Adjacency, Traversal, Permutation, Irregular)
require full replication of the datum on every device.

Work-to-datum scaling: a task's work space counts *threads*; with ILP each
thread covers several datum elements (§4.5.1), so datum extents are an
integer multiple of work extents. The scale is derived per dimension from
the shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import PatternMismatchError
from repro.patterns.base import InputContainer, Requirement
from repro.patterns.boundary import Boundary
from repro.utils.rect import Rect, split_modular

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datum import Datum


def _scale(work: int, datum: int, what: str) -> int:
    if work <= 0 or datum % work != 0:
        raise PatternMismatchError(
            f"datum extent {datum} is not an integer multiple of work "
            f"extent {work} ({what})"
        )
    return datum // work


class FullReplicationInput(InputContainer):
    """Base for patterns requiring the entire datum on every device."""

    def required(self, work_shape: Sequence[int], work_rect: Rect) -> Requirement:
        return Requirement.simple(Rect.from_shape(self.datum.shape))


class Block1D(FullReplicationInput):
    """Each thread requires the entire buffer (all-pairs N-body)."""

    pattern_name = "Block (1D)"

    def __init__(self, datum: "Datum"):
        super().__init__(datum)
        self._check_ndim(1)


class Block2D(InputContainer):
    """Each thread-block requires multiple rows, loaded in horizontal
    tiles (matrix multiplication, first operand)."""

    pattern_name = "Block (2D)"

    def __init__(self, datum: "Datum"):
        super().__init__(datum)
        self._check_ndim(2)

    def required(self, work_shape: Sequence[int], work_rect: Rect) -> Requirement:
        # Work dim 0 correlates 1:1 (scaled) with the datum's rows; the
        # reduction dimension (columns) is needed whole.
        scale = _scale(work_shape[0], self.datum.shape[0], "rows")
        rows = (work_rect[0].begin * scale, work_rect[0].end * scale)
        return Requirement.simple(Rect(rows, (0, self.datum.shape[1])))


class Block2DTransposed(InputContainer):
    """Each thread-block requires multiple *columns*, loaded in vertical
    tiles (matrix multiplication, second operand).

    Columns correlate with work dimension 1; since the scheduler
    partitions work dimension 0, every device needs the full column range
    — i.e. the whole datum is replicated. (Partitioning along dim 1 would
    produce column stripes; the paper's scheduler splits thread-blocks
    along one dimension only.)
    """

    pattern_name = "Block (2D - Transposed)"

    def __init__(self, datum: "Datum"):
        super().__init__(datum)
        self._check_ndim(2)

    def required(self, work_shape: Sequence[int], work_rect: Rect) -> Requirement:
        if len(work_shape) >= 2:
            scale = _scale(work_shape[1], self.datum.shape[1], "columns")
            cols = (work_rect[1].begin * scale, work_rect[1].end * scale)
        else:
            cols = (0, self.datum.shape[1])
        return Requirement.simple(Rect((0, self.datum.shape[0]), cols))


class WindowND(InputContainer):
    """Spatially-local ND window with halo overlap (stencils, convolution).

    Args:
        datum: The input datum.
        radius: Per-dimension window radius (an int means the same radius
            in every dimension). The Game of Life uses radius 1 (3x3).
        boundary: Out-of-bounds behaviour; WRAP produces wrap-around halo
            pieces via modular decomposition.
    """

    pattern_name = "Window (ND)"

    def __init__(
        self,
        datum: "Datum",
        radius: int | Sequence[int] = 1,
        boundary: Boundary = Boundary.CLAMP,
    ):
        super().__init__(datum)
        ndim = datum.ndim
        if isinstance(radius, int):
            radius = (radius,) * ndim
        if len(radius) != ndim:
            raise PatternMismatchError(
                f"radius has {len(radius)} entries for a {ndim}-D datum"
            )
        if any(r < 0 for r in radius):
            raise PatternMismatchError("window radius must be non-negative")
        self.radius = tuple(int(r) for r in radius)
        self.boundary = boundary

    def required(self, work_shape: Sequence[int], work_rect: Rect) -> Requirement:
        shape = self.datum.shape
        if len(work_shape) != len(shape):
            raise PatternMismatchError(
                f"{self.pattern_name}: work is {len(work_shape)}-D but datum "
                f"{self.datum.name!r} is {len(shape)}-D"
            )
        ivals = []
        for d in range(len(shape)):
            scale = _scale(work_shape[d], shape[d], f"dim {d}")
            b = work_rect[d].begin * scale
            e = work_rect[d].end * scale
            if (b == 0 and e == shape[d]) or (
                e - b + 2 * self.radius[d] >= shape[d]
            ):
                # Device holds the full extent of this dimension — or its
                # stripe plus halo would wrap past a full period (which
                # would alias halo and interior). Either way, require the
                # whole dimension: all neighborhoods resolve in-buffer.
                ivals.append((0, shape[d]))
            else:
                ivals.append((b - self.radius[d], e + self.radius[d]))
        virtual = Rect(*ivals)
        if self.boundary is Boundary.WRAP:
            pieces = tuple(split_modular(virtual, shape))
            return Requirement(virtual, pieces)
        # CLAMP / ZERO / NO_CHECKS: no data exists beyond the edges — the
        # requirement clips to the datum extent and the device-level view
        # synthesizes edge values.
        clipped = virtual.clip(Rect.from_shape(shape))
        return Requirement.simple(clipped)

    def validate(self, work_shape: Sequence[int]) -> None:
        if len(work_shape) != self.datum.ndim:
            raise PatternMismatchError(
                f"{self.pattern_name}: {len(work_shape)}-D work vs "
                f"{self.datum.ndim}-D datum {self.datum.name!r}"
            )


class Window1D(WindowND):
    pattern_name = "Window (1D)"

    def __init__(self, datum, radius=1, boundary=Boundary.CLAMP):
        super().__init__(datum, radius, boundary)
        self._check_ndim(1)


class Window2D(WindowND):
    pattern_name = "Window (2D)"

    def __init__(self, datum, radius=1, boundary=Boundary.CLAMP):
        super().__init__(datum, radius, boundary)
        self._check_ndim(2)


class Window3D(WindowND):
    pattern_name = "Window (3D)"

    def __init__(self, datum, radius=1, boundary=Boundary.CLAMP):
        super().__init__(datum, radius, boundary)
        self._check_ndim(3)


class Window4D(WindowND):
    """4-D window used by batched multi-convolution (§6.1)."""

    pattern_name = "Window (4D)"

    def __init__(self, datum, radius=1, boundary=Boundary.CLAMP):
        super().__init__(datum, radius, boundary)
        self._check_ndim(4)


class BlockStriped(InputContainer):
    """Partitioned-dimension stripe; all other dimensions whole.

    The N-dimensional generalization of Block (2D) used for batched
    tensors (§6.1): work dimension 0 (e.g. the image batch) correlates 1:1
    with datum dimension 0, while the remaining dimensions (channels,
    spatial extents) are needed whole and need not match the work
    dimensions at all — a convolution's output spatial extent differs from
    its input's.
    """

    pattern_name = "Block (Striped)"

    def required(self, work_shape: Sequence[int], work_rect: Rect) -> Requirement:
        scale = _scale(work_shape[0], self.datum.shape[0], "dim 0")
        rows = (work_rect[0].begin * scale, work_rect[0].end * scale)
        ivals = [rows] + [(0, s) for s in self.datum.shape[1:]]
        return Requirement.simple(Rect(*ivals))


class BlockColumnStriped(InputContainer):
    """Column stripe correlated with work dimension 0; all rows.

    Used when a task partitioned along dimension 0 of its *output* reads
    the matching *columns* of a transposed operand (e.g. re-transposing a
    feature-major activation matrix back to batch-major in hybrid
    model-parallel training, §6.1). When the operand was produced
    row-striped, the location monitor's intersections turn the requirement
    into the expected all-to-all exchange automatically.
    """

    pattern_name = "Block (Column Striped)"

    def __init__(self, datum: "Datum"):
        super().__init__(datum)
        self._check_ndim(2)

    def required(self, work_shape: Sequence[int], work_rect: Rect) -> Requirement:
        scale = _scale(work_shape[0], self.datum.shape[1], "columns")
        cols = (work_rect[0].begin * scale, work_rect[0].end * scale)
        return Requirement.simple(Rect((0, self.datum.shape[0]), cols))


class Replicated(FullReplicationInput):
    """Whole-datum replication on every device — model parameters shared
    by all work items (convolution filters, fully-connected weights)."""

    pattern_name = "Replicated"


class Adjacency(FullReplicationInput):
    """Sporadic access of a dense structure with a fixed pattern (sparse
    matrix-vector multiplication, cloth simulation). The referenced dense
    datum is replicated on every device."""

    pattern_name = "Adjacency"


class TraversalBFS(FullReplicationInput):
    """Each thread operates on neighbors of a vertex (BFS order)."""

    pattern_name = "Traversal (BFS)"


class TraversalDFS(FullReplicationInput):
    """Each thread operates on neighbors of a vertex (DFS order)."""

    pattern_name = "Traversal (DFS)"


class Permutation(FullReplicationInput):
    """Contiguous blocks distributed to threads in a permutation (FFT)."""

    pattern_name = "Permutation"


class IrregularInput(FullReplicationInput):
    """Access pattern unknown in advance (finite state machines)."""

    pattern_name = "Irregular"
