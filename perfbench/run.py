"""The repository benchmark: one command, four workloads, two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 10 --trace 0

``--trace 0`` runs one warm-up pass, then repeats whole passes of the
workload until ``--seconds`` of timed work have run, and reports the
end-to-end metrics. ``--trace 1``
runs an untraced pass, a traced pass (spans around every layer boundary,
see ``layers.py``) and a second untraced pass, and reports the per-layer
metrics. Both print human-readable lines and then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Host wall-clock is measured with ``time.perf_counter``. Throughput and
call times are reported in reference seconds, corrected for the drift of
a shared machine by a probe run beside every pass (see ``speed_probe``);
``setup_s`` is raw seconds. The simulated metrics are the simulator's own
clock and must repeat bit-for-bit in every pass of a seed. Any output
check that fails, or any simulated result that does not repeat, makes
the command exit with 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time

# All load comes from this one thread: no BLAS worker threads, which would
# compete with it for the machine's cores. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT.parent / "src"))
sys.path.insert(0, str(ROOT))

try:
    import numpy as np

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailed, sliced_gol_step
except ImportError as e:  # no program to benchmark next to this directory
    print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
    sys.exit(2)

#: The traced run fails if more than this share of its wall time lies
#: outside every span.
UNATTRIBUTED_TOLERANCE = 0.10
#: Host seconds of :func:`speed_probe` on the reference machine, a 2-core
#: Intel Xeon VM at 2.1 GHz in its fast state. See ``speed_probe``.
PROBE_REFERENCE_S = 0.021


class _Record:
    __slots__ = ("key", "pair", "name")

    def __init__(self, key, pair, name):
        self.key, self.pair, self.name = key, pair, name


def speed_probe() -> float:
    """Host seconds of a fixed mix of object-heavy Python, plain-numpy
    stencil steps and small matrix products: code that does not touch
    the program.

    Machines shared with other tenants change speed by up to 2x over
    seconds to minutes, which moves every host time of a run together.
    Each pass runs this probe before and after itself, and its host
    metrics are reported in *reference seconds*: raw seconds divided by
    ``(probe seconds / PROBE_REFERENCE_S) ** wl.probe_sensitivity``, about
    the time the pass would take with the machine at the reference speed.
    A change to the program moves reference seconds as much as raw ones;
    drift of the machine mostly cancels. The raw values are printed
    beside them.
    """
    t0 = time.perf_counter()
    table: dict = {}
    recent: list = []
    for i in range(20000):
        r = _Record(i, (i, i + 1), str(i & 255))
        table[(i & 511, r.name)] = r
        recent.append(r.pair)
        if len(recent) > 512:
            recent.clear()
    board = np.random.default_rng(0).random((256, 256)) < 0.35
    board = board.astype(np.int32)
    for _ in range(20):
        board = sliced_gol_step(board, wrap=False)
    a = np.random.default_rng(0).standard_normal((96, 96), np.float32) / 10
    x = a
    for _ in range(400):
        x = x @ a
    return time.perf_counter() - t0


class Pass:
    """Timings and results of one pass of a workload."""

    def __init__(self, wl, seed, scale=1.0, tracer=None, check=False):
        clock = time.perf_counter
        gc.collect()
        probe = speed_probe()
        t0 = clock()
        inp = wl.generate(seed, scale)
        t1 = clock()
        if tracer is not None:
            specs = getattr(inp, "specs", ())
            layers.install(tracer, {id(s.workload): s.name for s in specs})
        try:
            t2 = clock()
            system = wl.build(inp)
            t3 = clock()
            self.calls: list[float] = []
            self.units, self.failed = wl.run(system, inp, self.calls, tracer)
            t4 = clock()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.setup_s = (t1 - t0) + (t3 - t2)
        self.timed_s = t4 - t3
        self.window_s = t4 - t2  # what a traced pass traces
        self.exact = wl.exact(system, inp)
        if check:
            wl.check(system, inp)
        #: How much slower than the reference the machine ran this pass.
        probe = (probe + speed_probe()) / 2
        self.slowness = (probe / PROBE_REFERENCE_S) ** wl.probe_sensitivity

    def ref(self, seconds: float) -> float:
        """Host ``seconds`` of this pass in reference seconds."""
        return seconds / self.slowness


def tail(wl, samples: list[float]) -> tuple[str, float]:
    """The workload's fixed tail percentile of ``samples`` (its maximum
    for ``tail_q = 100``). Each workload fixes the highest percentile
    that keeps at least 10 samples beyond it in a run of normal length,
    so that every run reports the same percentile."""
    if wl.tail_q >= 100:
        return f"max (n={len(samples)})", max(samples)
    beyond = int(len(samples) * (1 - wl.tail_q / 100))
    label = f"p{wl.tail_q:g} (n={len(samples)}, {beyond} beyond)"
    return label, float(np.percentile(samples, wl.tail_q))


def same_exact(passes: list[Pass]) -> None:
    first = passes[0].exact
    for i, p in enumerate(passes[1:], 1):
        if p.exact != first:
            diff = {k: (first[k], p.exact.get(k)) for k in first
                    if p.exact.get(k) != first[k]}
            raise CheckFailed(f"pass {i} does not repeat pass 0: {diff}")


def line(name: str, value, unit: str, note: str = "") -> None:
    v = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<36} {v:>14} {unit:<8} {note}")


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, int, int]:
    # A first, untimed pass checks the outputs and lets lazy imports and
    # first allocations happen before anything is timed.
    warm = Pass(wl, seed, check=True)
    passes: list[Pass] = []
    while not passes or sum(p.timed_s for p in passes) < seconds:
        passes.append(Pass(wl, seed))
        same_exact([warm] + passes)
    timed = sum(p.timed_s for p in passes)
    units = sum(p.units for p in passes)
    failed = sum(p.failed for p in passes)
    n = len(passes)
    rates = [p.units / p.ref(p.timed_s) for p in passes]
    calls = [p.ref(c) for p in passes for c in p.calls]
    raw_calls = [c for p in passes for c in p.calls]
    tail_name, tail_s = tail(wl, calls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    exact = passes[0].exact
    slow = statistics.median(p.slowness for p in passes)
    metrics = {
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "units_per_s": (statistics.median(rates), "1/ref_s"),
        "call_p50_ms": (statistics.median(calls) * 1e3, "ref_ms"),
        "call_tail_ms": (tail_s * 1e3, "ref_ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sim_s": (exact["sim_s"], "sim_s"),
    }
    raw_rate = statistics.median(p.units / p.timed_s for p in passes)
    raw_p50 = statistics.median(raw_calls) * 1e3
    raw_tail = tail(wl, raw_calls)[1] * 1e3
    notes = {
        "setup_s": f"host, median of {n} passes",
        "units_per_s": f"host, median of {n} passes; raw {raw_rate:.4g}/s",
        "call_p50_ms": f"host, median {wl.call}; raw {raw_p50:.4g} ms",
        "call_tail_ms": f"host, {tail_name} {wl.call}; raw {raw_tail:.4g} ms",
        "peak_rss_mb": "host, process peak resident set",
        "sim_s": f"simulated makespan of one pass, identical in {n} passes",
    }
    print(f"{wl.name}: seed {seed}, {n} passes, {units} {wl.unit}s in "
          f"{timed:.2f} s; machine {slow:.3f}x slower than the reference")
    for k, (v, unit) in metrics.items():
        line(k, v, unit, notes[k])
    for k, v in exact.items():
        if k in layers.PER_LAYER:
            line(k, v, layers.PER_LAYER[k][0], "simulated, same in every pass")
    line("failed_frac", failed / max(units + failed, 1), "ratio",
         f"of {units + failed} {wl.unit}s attempted")
    return metrics, units + failed, failed


def per_layer(wl, seed: int) -> tuple[dict, int, int]:
    before = Pass(wl, seed, check=True)
    tracer = Tracer()
    traced = Pass(wl, seed, tracer=tracer)
    after = Pass(wl, seed)
    runs = [before, traced, after]
    same_exact(runs)
    out = layers.layer_metrics(tracer, traced.window_s)
    # The first pass doubles as warm-up (lazy imports, first allocations),
    # so host times are taken from the pass after the traced one.
    out["trace.overhead_x"] = (
        traced.ref(traced.window_s) / after.ref(after.window_s)
    )
    out.update((k, v) for k, v in before.exact.items() if k in out)
    key = getattr(wl, "exponent_metric", None)
    if key is not None:
        # Scaling probe: host cost per unit at a quarter of the size.
        quarter = [Pass(wl, seed, scale=0.25) for _ in range(2)]
        runs += quarter
        full = after.ref(after.timed_s) / after.units
        small = min(p.ref(p.timed_s) / p.units for p in quarter)
        out[key] = math.log(full / small) / math.log(4.0)
    if hasattr(wl, "numpy_wall"):
        wall = min(wl.numpy_wall(seed) for _ in range(3))
        out["numpy_ref.wall_s"] = wall
        out["numpy_ref.tax_x"] = after.timed_s / wall
    path = ROOT / "out" / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(path)
    print(f"{wl.name}: seed {seed}, traced pass {traced.window_s:.3f} s, "
          f"{len(tracer.spans)} spans -> {path.relative_to(ROOT.parent)}")
    for k, (unit, _) in layers.PER_LAYER.items():
        line(k, out[k], unit)
    share = out["trace.unattributed_share"]
    print(f"  unattributed share {share:.4f}, tolerance "
          f"{UNATTRIBUTED_TOLERANCE}")
    if share > UNATTRIBUTED_TOLERANCE:
        raise CheckFailed(
            f"spans leave {share:.1%} of the traced wall unattributed "
            f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%})"
        )
    metrics = {k: (out[k], unit) for k, (unit, _) in layers.PER_LAYER.items()}
    attempted = sum(p.units + p.failed for p in runs)
    return metrics, attempted, sum(p.failed for p in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if hasattr(wl, "startup_check"):
            wl.startup_check(args.seed)
        if args.trace:
            metrics, attempted, failed = per_layer(wl, args.seed)
        else:
            metrics, attempted, failed = end_to_end(
                wl, args.seed, args.seconds
            )
    except CheckFailed as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 1
    result.update(
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
