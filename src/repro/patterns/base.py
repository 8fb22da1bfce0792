"""Container base classes: a datum bound to a memory access pattern.

The paradigm (§2.1): a *Task* is a tuple of input and output containers,
each pairing a :class:`~repro.core.datum.Datum` with a declared memory
access pattern. Containers answer the two questions partitioning needs:

* **input**: given the slice of the work (grid) a device executes, which
  (possibly overlapping, possibly wrapping) region of the datum must be
  resident on that device? (:meth:`InputContainer.required`)
* **output**: which region does the device *own* and write, or does the
  pattern require a full duplicated buffer plus post-aggregation?
  (:meth:`OutputContainer.owned`, :attr:`OutputContainer.aggregation`)

Work space is N-dimensional; the scheduler partitions it along dimension 0
(thread-blocks distributed evenly, §2.1), so ``work_rect`` is always a
full-extent rect except in dimension 0.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import PatternMismatchError
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datum import Datum


@dataclass(frozen=True)
class Requirement:
    """An input container's data requirement for one device.

    Attributes:
        virtual: The required region in *virtual* datum coordinates — may
            extend beyond the datum for WRAP windows (e.g. rows
            ``[-1, 2049)``).
        pieces: ``(virtual, actual)`` rect pairs decomposing ``virtual``
            into in-bounds source regions (see
            :func:`repro.utils.rect.split_modular`).
    """

    virtual: Rect
    pieces: tuple[tuple[Rect, Rect], ...]

    @staticmethod
    def simple(rect: Rect) -> "Requirement":
        """A requirement fully inside the datum (virtual == actual)."""
        return Requirement(rect, ((rect, rect),))

    @property
    def in_bounds(self) -> bool:
        return all(v == a for v, a in self.pieces)


class Aggregation(enum.Enum):
    """Host-side post-processing required by an output pattern (§3.2)."""

    #: Segments are disjoint; gather is pure concatenation of rects.
    NONE = "none"
    #: Duplicated buffers summed element-wise (Reductive Static, and the
    #: zero-initialized scatter merge of Unstructured Injective).
    SUM = "sum"
    #: Duplicated buffers combined with element-wise maximum.
    MAX = "max"
    #: Variable-length per-device outputs appended in device order
    #: (Reductive Dynamic, Irregular).
    APPEND = "append"


class Container(ABC):
    """A datum bound to an access pattern (one task argument)."""

    #: Human-readable pattern name, e.g. ``"Window (2D)"``.
    pattern_name: str = "?"

    def __init__(self, datum: "Datum"):
        self.datum = datum

    def _check_ndim(self, expected: int) -> None:
        if self.datum.ndim != expected:
            raise PatternMismatchError(
                f"{self.pattern_name} pattern requires a {expected}-D datum, "
                f"got {self.datum.ndim}-D datum {self.datum.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.datum.name})"


class InputContainer(Container):
    """Base class for Table 1's input memory access patterns."""

    @abstractmethod
    def required(self, work_shape: Sequence[int], work_rect: Rect) -> Requirement:
        """Datum region a device executing ``work_rect`` must hold.

        Args:
            work_shape: Full work (grid) dimensions of the task.
            work_rect: This device's share of the work space.
        """

    def validate(self, work_shape: Sequence[int]) -> None:
        """Check pattern/task compatibility; raises PatternMismatchError."""


class OutputContainer(Container):
    """Base class for §3.2's output memory access patterns."""

    #: Host-side aggregation the pattern requires.
    aggregation: Aggregation = Aggregation.NONE

    #: Whether each device needs a duplicate of the entire datum.
    duplicated: bool = False

    @abstractmethod
    def owned(self, work_shape: Sequence[int], work_rect: Rect) -> Rect:
        """Datum region written by a device executing ``work_rect``.

        For duplicated patterns this is the full datum extent (each device
        writes its own private copy, merged at gather time).
        """

    def validate(self, work_shape: Sequence[int]) -> None:
        """Check pattern/task compatibility; raises PatternMismatchError."""

    def work_shape_from_datum(self) -> tuple[int, ...]:
        """Default task work dimensions implied by this output container.

        Structured patterns define the work space; reductive patterns
        cannot (the work space is the *input* size) and raise.
        """
        raise PatternMismatchError(
            f"{self.pattern_name} output cannot imply work dimensions; "
            "pass an explicit grid"
        )
