"""Result-table formatting and persistence for the benchmark harness."""

from __future__ import annotations

import pathlib
from typing import Sequence

import numpy as np


def percentiles(xs: Sequence[float], qs: Sequence[int]) -> dict:
    """``{"p50": ..., "p95": ...}``: ``np.percentile`` of ``xs`` at each
    of ``qs``, all 0.0 when ``xs`` is empty."""
    arr = np.asarray(xs, dtype=float)
    if arr.size == 0:
        return {f"p{q}": 0.0 for q in qs}
    return {f"p{q}": float(np.percentile(arr, q)) for q in qs}


def fmt_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render an aligned plain-text table with a title rule."""
    headers = list(headers)
    rows = [list(r) for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def record_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a result table and persist it under ``results_dir``."""
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{name}.txt").write_text(text)
    print(f"\n{text}")
