"""Output memory access patterns (paper §3.2).

The paper's novel complementary classification, by thread-to-output
mapping and output structure:

* **Structured Injective** — fixed outputs per thread, indices coincide
  with the work dimensions: exact disjoint segments per device (the only
  pattern that conserves memory, as §3.2 observes).
* **Unstructured Injective** — injective but spatially uncorrelated (FFT):
  full duplication per device plus a post-kernel scatter aggregation.
* **Reductive (Static)** — many-to-one with a predetermined output count
  (histogram): duplication + aggregation.
* **Reductive (Dynamic)** — output count known only at runtime (filtering):
  per-device outputs appended into a single host array.
* **Irregular** — unknown outputs per thread (ray tracing): per-device
  overflow buffers, appended.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import PatternMismatchError
from repro.patterns.base import Aggregation, OutputContainer
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datum import Datum


class StructuredInjective(OutputContainer):
    """Each thread writes a fixed number of distinct, work-correlated
    indices (matrix multiplication, stencils).

    Args:
        datum: Output datum.
        ilp: Per-dimension elements produced by each thread (§4.5.1);
            the implied work space is ``datum.shape / ilp``.
    """

    pattern_name = "Structured Injective"
    aggregation = Aggregation.NONE
    duplicated = False

    def __init__(self, datum: "Datum", ilp: int | Sequence[int] = 1):
        super().__init__(datum)
        ndim = datum.ndim
        if isinstance(ilp, int):
            ilp = (ilp,) * ndim
        if len(ilp) != ndim:
            raise PatternMismatchError(
                f"ilp has {len(ilp)} entries for a {ndim}-D datum"
            )
        if any(i < 1 for i in ilp):
            raise PatternMismatchError("ilp factors must be >= 1")
        for d, (s, i) in enumerate(zip(datum.shape, ilp)):
            if s % i != 0:
                raise PatternMismatchError(
                    f"datum extent {s} not divisible by ilp {i} in dim {d}"
                )
        self.ilp = tuple(int(i) for i in ilp)

    def owned(self, work_shape: Sequence[int], work_rect: Rect) -> Rect:
        shape = self.datum.shape
        if len(work_shape) != len(shape):
            raise PatternMismatchError(
                f"{self.pattern_name}: {len(work_shape)}-D work vs "
                f"{len(shape)}-D datum {self.datum.name!r}"
            )
        ivals = []
        for d in range(len(shape)):
            if work_shape[d] <= 0 or shape[d] % work_shape[d] != 0:
                raise PatternMismatchError(
                    f"datum extent {shape[d]} not an integer multiple of "
                    f"work extent {work_shape[d]} in dim {d}"
                )
            scale = shape[d] // work_shape[d]
            ivals.append(
                (work_rect[d].begin * scale, work_rect[d].end * scale)
            )
        return Rect(*ivals)

    def work_shape_from_datum(self) -> tuple[int, ...]:
        return tuple(s // i for s, i in zip(self.datum.shape, self.ilp))


class InjectiveStriped(OutputContainer):
    """Structured-injective along the partitioned dimension only.

    The output analogue of :class:`~repro.patterns.input_patterns
    .BlockStriped`: each device owns the stripe of datum dimension 0
    matching its share of work dimension 0 (whole extent elsewhere),
    without requiring the remaining datum dimensions to correlate with the
    work dimensions. Used for batched tensors whose channel/spatial
    extents differ between a task's inputs and outputs.
    """

    pattern_name = "Structured Injective (Striped)"
    aggregation = Aggregation.NONE
    duplicated = False

    def owned(self, work_shape: Sequence[int], work_rect: Rect) -> Rect:
        shape = self.datum.shape
        if work_shape[0] <= 0 or shape[0] % work_shape[0] != 0:
            raise PatternMismatchError(
                f"datum extent {shape[0]} not an integer multiple of work "
                f"extent {work_shape[0]} in dim 0"
            )
        scale = shape[0] // work_shape[0]
        ivals = [(work_rect[0].begin * scale, work_rect[0].end * scale)]
        ivals += [(0, s) for s in shape[1:]]
        return Rect(*ivals)

    def work_shape_from_datum(self) -> tuple[int, ...]:
        return (self.datum.shape[0],)


class InjectiveColumnStriped(OutputContainer):
    """Injective column stripes: device ``d`` owns the columns matching its
    share of work dimension 0, across all rows (the output analogue of
    :class:`~repro.patterns.input_patterns.BlockColumnStriped`; used by
    transpose tasks in hybrid model parallelism, §6.1)."""

    pattern_name = "Structured Injective (Column Striped)"
    aggregation = Aggregation.NONE
    duplicated = False

    def __init__(self, datum: "Datum"):
        super().__init__(datum)
        if datum.ndim != 2:
            raise PatternMismatchError(
                f"{self.pattern_name} requires a 2-D datum, got "
                f"{datum.ndim}-D {datum.name!r}"
            )

    def owned(self, work_shape: Sequence[int], work_rect: Rect) -> Rect:
        cols_total = self.datum.shape[1]
        if work_shape[0] <= 0 or cols_total % work_shape[0] != 0:
            raise PatternMismatchError(
                f"datum columns {cols_total} not an integer multiple of "
                f"work extent {work_shape[0]}"
            )
        scale = cols_total // work_shape[0]
        return Rect(
            (0, self.datum.shape[0]),
            (work_rect[0].begin * scale, work_rect[0].end * scale),
        )

    def work_shape_from_datum(self) -> tuple[int, ...]:
        return (self.datum.shape[1],)


class _DuplicatedOutput(OutputContainer):
    """Base for patterns that duplicate the whole datum on each device."""

    duplicated = True

    def owned(self, work_shape: Sequence[int], work_rect: Rect) -> Rect:
        return Rect.from_shape(self.datum.shape)


class UnstructuredInjective(_DuplicatedOutput):
    """Injective writes with no spatial locality (FFT bit-reversal).

    Requires duplicate copies of the entire datum on each device and a
    post-kernel aggregation that merges the scattered writes. Buffers are
    zero-initialized, so the disjoint scatter merge is an element-wise sum.
    """

    pattern_name = "Unstructured Injective"
    aggregation = Aggregation.SUM


class ReductiveStatic(_DuplicatedOutput):
    """Many-to-one mapping with a predetermined output count (histogram).

    Args:
        datum: Output datum (e.g. the 256-bin histogram array).
        op: Aggregation combining per-device partials: ``"sum"`` or
            ``"max"``.
    """

    pattern_name = "Reductive (Static)"

    def __init__(self, datum: "Datum", op: str = "sum"):
        super().__init__(datum)
        try:
            self.aggregation = {
                "sum": Aggregation.SUM,
                "max": Aggregation.MAX,
            }[op]
        except KeyError:
            raise PatternMismatchError(
                f"unsupported reduction op {op!r} (want 'sum' or 'max')"
            ) from None
        self.op = op


class ReductiveDynamic(_DuplicatedOutput):
    """Fewer outputs than threads, count determined at runtime
    (predicate-based filtering). Per-device results are appended into a
    single host output in device order; the datum's extent is the
    capacity."""

    pattern_name = "Reductive (Dynamic)"
    aggregation = Aggregation.APPEND


class IrregularOutput(_DuplicatedOutput):
    """Unknown number of outputs per thread (ray tracing). Treated as a
    dynamic append with per-device overflow buffers."""

    pattern_name = "Irregular"
    aggregation = Aggregation.APPEND


def combine(agg: Aggregation, partials: list[np.ndarray]) -> np.ndarray:
    """Combine per-device duplicated partial results on the host.

    ``APPEND`` is handled by the host-level aggregator (it needs per-device
    counts, not just arrays) and is rejected here.
    """
    if not partials:
        raise ValueError("no partial results to combine")
    if agg is Aggregation.SUM:
        out = partials[0].copy()
        for p in partials[1:]:
            out += p
        return out
    if agg is Aggregation.MAX:
        out = partials[0].copy()
        for p in partials[1:]:
            np.maximum(out, p, out=out)
        return out
    raise ValueError(f"cannot combine aggregation mode {agg}")
