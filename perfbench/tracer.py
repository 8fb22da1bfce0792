"""Span tracer for the traced benchmark run.

The tracer wraps the public calls into each layer of ``repro`` at run
time, records one span per call (name, start, end, parent, unit id) in
memory, and removes every wrapper again when the traced pass ends. No
file under ``src/`` is edited and no hook stays installed: an untraced
pass after a traced one runs the original code.

A layer's *self time* is the duration of its spans minus the durations of
their direct child spans. Spans nest strictly (the run is single
threaded), so the self times of all spans add up to the wall time the
spans cover, and ``1 - sum(self) / wall`` is the share of the traced wall
spent outside every wrapped call (benchmark glue and unwrapped code).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_MISSING = object()


class _TracedFunc:
    """Data descriptor replacing the ``Kernel.func`` field while tracing.

    ``Kernel`` is a frozen dataclass whose ``func`` is the kernel body the
    scheduler calls once per device. Reads return a span-recording wrapper
    of the stored body (one cached wrapper per body, so ``Kernel``
    equality and hashing stay stable); writes store the unwrapped body in
    the instance, so kernels built while tracing are plain afterwards.
    """

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self._wrappers: dict[int, object] = {}  # id(body) -> wrapper
        self._bodies: dict[int, object] = {}  # id(wrapper) -> body

    def __get__(self, instance, owner=None):
        if instance is None:
            return None  # the dataclass field default
        body = instance.__dict__.get("func")
        if body is None:
            return None
        w = self._wrappers.get(id(body))
        if w is None:
            w = self._tracer.wrap(self._name, body)
            self._wrappers[id(body)] = w
            self._bodies[id(w)] = body
        return w

    def __set__(self, instance, value) -> None:
        instance.__dict__["func"] = self._bodies.get(id(value), value)


class Tracer:
    """Records nested spans around patched callables.

    ``unit`` is the id of the unit of work in progress (a tick, a job id
    or a batch index); each span takes the value current when it closes.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 for a root), unit]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit = None
        #: Counters read at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)
        #: Objects created while tracing, by kind (plan caches, monitors,
        #: node traces), so their counters can be summed at the end.
        self.created: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrappers --------------------------------------------------------------
    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs ahead of the span and its result is passed
        to ``after(args, token, result)``, which runs once the span has
        closed — bookkeeping stays out of the measured interval.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[4] = tracer.unit
            if after is not None:
                after(args, token, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` (a function, or a property's getter) by
        its traced wrapper until :meth:`uninstall`."""
        raw = owner.__dict__.get(attr, _MISSING)
        if isinstance(raw, property):
            new = property(
                self.wrap(name, raw.fget, before, after),
                raw.fset,
                raw.fdel,
                raw.__doc__,
            )
        else:
            new = self.wrap(name, getattr(owner, attr), before, after)
        self._replace(owner, attr, raw, new)

    def substitute(self, owner, attr: str, name: str, fn) -> None:
        """Replace ``owner.attr`` by ``fn``, traced as ``name``, until
        :meth:`uninstall`."""
        raw = owner.__dict__.get(attr, _MISSING)
        self._replace(owner, attr, raw, self.wrap(name, fn))

    def record_new(self, cls, kind: str) -> None:
        """Keep every ``cls`` instance built while tracing (no span)."""
        raw = cls.__dict__["__init__"]
        created = self.created[kind]

        def init(obj, *args, **kwargs):
            raw(obj, *args, **kwargs)
            created.append(obj)

        init.__wrapped__ = raw
        self._replace(cls, "__init__", raw, init)

    def patch_kernel_bodies(self, kernel_cls, name: str) -> None:
        """Trace every kernel body called through ``kernel_cls.func``."""
        raw = kernel_cls.__dict__.get("func", _MISSING)
        self._replace(kernel_cls, "func", raw, _TracedFunc(self, name))

    def _replace(self, owner, attr, raw, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw, new))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and verify that
        no wrapper is left behind."""
        for owner, attr, raw, _ in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        leftover = [
            f"{getattr(o, '__name__', o)}.{a}"
            for o, a, raw, _ in self._patches
            if o.__dict__.get(a, _MISSING) is not raw
        ]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"wrappers still installed: {leftover}")

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += (end - start) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """Write the spans as JSON: times in microseconds from the first
        span, parent as an index into the list (-1 for a root)."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [
                ids[name],
                round((start - t0) * 1e6, 3),
                round((end - t0) * 1e6, 3),
                parent,
                unit,
            ]
            for name, start, end, parent, unit in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start_us", "end_us", "parent", "unit"],
                    "names": names,
                    "spans": rows,
                },
                f,
                separators=(",", ":"),
            )
