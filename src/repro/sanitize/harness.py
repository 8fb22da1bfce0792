"""The sanitizer's execution harness: run kernels segmented, record, check.

:class:`SanitizeSession` executes a task the way a multi-GPU node would —
the grid partitioned into whole-thread-block segments, each segment's
kernel body run against pattern views restricted to its share — but on
plain host arrays, with an :class:`~repro.sanitize.recorder.AccessRecorder`
wired into every view. After each segment the recording is judged against
the declared patterns (:func:`~repro.sanitize.checker.check_segment`);
after all segments, cross-segment properties are judged
(:func:`~repro.sanitize.checker.check_races`).

Aggregation semantics mirror the framework: duplicated outputs (reductive,
unstructured-injective) write per-segment *private* zero-initialized
duplicates that stay pending until :meth:`SanitizeSession.aggregate`
combines them — a task reading a pending datum raises
:class:`~repro.sanitize.errors.UnaggregatedReadError`, the dynamic
analogue of reading one device's histogram partial as if it were the
reduction.

Known false negatives (DESIGN.md §9): direct mutation of a structured
output's ``.array`` is not attributed per element (the view records only
``write()``/iterator writes); unmodified (``raw``) routines receive bare
arrays and are statically linted only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.datum import Datum
from repro.core.task import Kernel, Task
from repro.device_api.context import KernelContext
from repro.device_api.views import make_view
from repro.patterns.base import Aggregation, InputContainer, OutputContainer
from repro.patterns.output_patterns import combine
from repro.sanitize.checker import check_races, check_segment
from repro.sanitize.errors import LintIssue, SanitizerError, UnaggregatedReadError
from repro.sanitize.lint import lint_invocation
from repro.sanitize.recorder import AccessRecorder
from repro.utils.rect import Rect


class _HarnessBuffer:
    """Minimal stand-in for :class:`repro.sim.memory.DeviceBuffer`.

    Backs a full-datum region with a host array; the device-level views
    only need ``rect``, ``view()``, ``array()``, ``data``/``nbytes`` and an
    assignable ``dynamic_count``. Input buffers back the *whole* datum so that even
    out-of-footprint reads resolve to real values — the sanitizer observes
    and reports them instead of crashing on a missing halo.
    """

    def __init__(self, array: np.ndarray):
        self.data = array
        self.rect = Rect.from_shape(array.shape)
        self.dynamic_count = 0

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def array(self) -> np.ndarray:
        return self.data

    def view(self, rect: Rect) -> np.ndarray:
        return self.data[rect.slices()]


@dataclass
class _Pending:
    """Per-segment duplicated-output partials awaiting aggregation."""

    container: OutputContainer
    partials: list[np.ndarray] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)


@dataclass
class SanitizeReport:
    """Outcome of one sanitized invocation."""

    task: str
    errors: list[SanitizerError] = field(default_factory=list)
    warnings: list[LintIssue] = field(default_factory=list)
    segments: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors


class SanitizeSession:
    """Run tasks under the conformance sanitizer on host arrays.

    Args:
        segments: Number of simulated devices to partition each grid into
            (segments beyond the thread-block count stay idle, exactly as
            on a real node).
        strict: Raise the first :class:`SanitizerError` instead of
            collecting it into the report.
    """

    def __init__(self, segments: int = 3, strict: bool = True):
        if segments < 1:
            raise ValueError("need at least one segment")
        self.segments = segments
        self.strict = strict
        #: Canonical per-datum host state within this session.
        self._canonical: dict[Datum, np.ndarray] = {}
        #: Duplicated outputs written but not yet aggregated.
        self._pending: dict[Datum, _Pending] = {}
        self.reports: list[SanitizeReport] = []

    # -- datum state -------------------------------------------------------
    def array(self, datum: Datum) -> np.ndarray:
        """The session's canonical array for ``datum`` (created on first
        use from the bound host buffer, else zeros)."""
        arr = self._canonical.get(datum)
        if arr is None:
            if datum.host is not None:
                arr = np.array(datum.host, copy=True)
            else:
                arr = np.zeros(datum.shape, datum.dtype)
            self._canonical[datum] = arr
        return arr

    def pending(self, datum: Datum) -> bool:
        """Whether ``datum`` holds unaggregated partials."""
        return datum in self._pending

    def aggregate(self, datum: Datum) -> np.ndarray:
        """Combine pending per-segment partials into the canonical array
        (the harness analogue of the framework's gather-time aggregation)."""
        p = self._pending.pop(datum, None)
        if p is None:
            return self.array(datum)
        arr = self.array(datum)
        if p.container.aggregation is Aggregation.APPEND:
            total = 0
            for part, n in zip(p.partials, p.counts):
                n = min(n, arr.shape[0] - total)
                if n <= 0:
                    break
                arr[total : total + n] = part[:n]
                total += n
            arr_total = total
            datum.dynamic_total = arr_total  # type: ignore[attr-defined]
        else:
            arr[...] = combine(
                p.container.aggregation, p.partials
            ).astype(arr.dtype, copy=False)
        return arr

    # -- execution ---------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        *containers,
        grid=None,
        constants: Mapping[str, Any] | None = None,
    ) -> SanitizeReport:
        """Execute one task under the sanitizer.

        Returns the :class:`SanitizeReport`; in strict mode the first
        violation raises instead.
        """
        task = Task(kernel, containers, grid, constants)
        report = SanitizeReport(task=task.name)
        report.warnings = [
            i for i in lint_invocation(kernel, containers, grid=task.grid)
            if i.severity == "warning"
        ]
        self.reports.append(report)

        # Reading a datum whose last writer left unaggregated partials is
        # itself a violation — the values are one device's partial.
        for i, c in enumerate(task.containers):
            if isinstance(c, InputContainer) and self.pending(c.datum):
                self._emit(report, UnaggregatedReadError(
                    "task reads a datum whose reductive partials were "
                    "never aggregated",
                    task=task.name,
                    container_index=i,
                    datum=c.datum.name,
                ))

        work_shape = task.grid.shape
        rects = [
            r for r in task.grid.partition(self.segments) if not r.empty
        ]
        report.segments = len(rects)

        # Input snapshots are taken once, before any segment runs: an
        # in-place task (input and output on the same datum) must read the
        # pre-task values from every segment, as the framework's
        # write-after-read hazard tracking guarantees.
        in_bufs: dict[Datum, _HarnessBuffer] = {}
        for c in task.containers:
            if isinstance(c, InputContainer) and c.datum not in in_bufs:
                in_bufs[c.datum] = _HarnessBuffer(
                    np.array(self.array(c.datum), copy=True)
                )
        new_pending: dict[Datum, _Pending] = {}

        if kernel.raw:
            # Unmodified routines receive bare arrays — there is nothing
            # to record. Run functionally for session-state continuity;
            # conformance coverage is the static lint only.
            self._run_raw(task, rects, in_bufs)
            return report

        recorders: list[AccessRecorder] = []
        for seg, work_rect in enumerate(rects):
            rec = AccessRecorder(seg, work_rect)
            views = []
            dyn_views: list[tuple[int, Any]] = []
            for i, c in enumerate(task.containers):
                if isinstance(c, InputContainer):
                    buf = in_bufs[c.datum]
                elif c.duplicated:
                    p = new_pending.get(c.datum)
                    if p is None:
                        p = new_pending[c.datum] = _Pending(c)
                    private = np.zeros(c.datum.shape, c.datum.dtype)
                    p.partials.append(private)
                    buf = _HarnessBuffer(private)
                else:
                    buf = _HarnessBuffer(self.array(c.datum))
                view = make_view(
                    c, buf, work_shape, work_rect, recorder=rec, index=i
                )
                if (
                    isinstance(c, OutputContainer)
                    and c.duplicated
                    and c.aggregation is Aggregation.APPEND
                ):
                    dyn_views.append((i, view))
                views.append(view)
            ctx = KernelContext(
                device=seg,
                num_devices=len(rects),
                grid=task.grid,
                work_rect=work_rect,
                views=tuple(views),
                constants=task.constants,
            )
            kernel.func(ctx)
            for i, v in dyn_views:
                c = task.containers[i]
                new_pending[c.datum].counts.append(v.count)
            recorders.append(rec)
            for err in check_segment(
                task.name, task.containers, work_shape, rec
            ):
                self._emit(report, err)

        for err in check_races(
            task.name, task.containers, work_shape, recorders
        ):
            self._emit(report, err)

        # Dynamic-coverage warning: a declared input no segment ever read.
        touched: set[int] = set()
        for rec in recorders:
            touched |= rec.touched_inputs()
        for i, c in enumerate(task.containers):
            if isinstance(c, InputContainer) and i not in touched:
                report.warnings.append(LintIssue(
                    "warning", "unused-input",
                    f"declared input {c.datum.name!r} was never read by "
                    "any segment (over-declared footprint forces useless "
                    "copies)",
                    task=task.name, container_index=i,
                ))

        self._pending.update(new_pending)
        return report

    def _run_raw(self, task: Task, rects, in_bufs) -> None:
        from repro.core.unmodified import RoutineContext

        for seg, work_rect in enumerate(rects):
            params: list = []
            segments: list[Rect] = []
            for c in task.containers:
                if isinstance(c, InputContainer):
                    rect = c.required(task.grid.shape, work_rect).virtual
                    rect = rect.clip(Rect.from_shape(c.datum.shape))
                    arr = in_bufs[c.datum].view(rect)
                else:
                    rect = c.owned(task.grid.shape, work_rect)
                    arr = self.array(c.datum)[rect.slices()]
                params.append(arr)
                segments.append(rect)
            ctx = RoutineContext(
                device=seg,
                num_devices=len(rects),
                parameters=tuple(params),
                container_segments=tuple(segments),
                constants=task.constants,
                context=task.kernel.context,
            )
            task.kernel.func(ctx)

    def _emit(self, report: SanitizeReport, err: SanitizerError) -> None:
        report.errors.append(err)
        if self.strict:
            raise err


def sanitize_task(
    kernel: Kernel,
    *containers,
    grid=None,
    constants: Mapping[str, Any] | None = None,
    segments: int = 3,
    strict: bool = True,
) -> SanitizeReport:
    """One-shot convenience: run a single task under a fresh session and
    aggregate every duplicated output before returning."""
    session = SanitizeSession(segments=segments, strict=strict)
    report = session.run(
        kernel, *containers, grid=grid, constants=constants
    )
    for c in containers:
        if isinstance(c, OutputContainer) and c.duplicated:
            session.aggregate(c.datum)
    return report
