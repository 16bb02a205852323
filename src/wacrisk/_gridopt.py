"""Deterministic grid seed + pattern polish for 2-D minimisation.

Objectives return +inf on infeasible probes.  Ties resolve to the
lexicographically smallest point because the scan runs row-major over the
first coordinate and only strict improvements are accepted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleError, ValidationError

# compass-polish rounds; the step halves on every round without a move
_MAX_POLISH = 60


def grid_minimize(objective, box, step):
    """Minimise ``objective(x, y)`` over the rectangle ``box``.

    ``box`` is (x_lo, x_hi, y_lo, y_hi); the seed grid uses spacing
    ``step`` (a float or an (x_step, y_step) pair) and includes both
    endpoints.  The seed is polished by a shrinking compass search until
    the polish step falls below min(x_step, y_step) / 64.

    Returns ((x, y), value).  Raises ValidationError for a reversed or
    unbounded box or a step that is not a positive real, and
    InfeasibleError when every grid probe is infeasible.
    """
    x_lo, x_hi, y_lo, y_hi = box
    sx, sy = (step, step) if np.isscalar(step) else step
    if not (x_lo <= x_hi and y_lo <= y_hi and all(math.isfinite(v) for v in box)):
        raise ValidationError(f"search box {tuple(box)} must be finite with lo <= hi")
    if not (0.0 < sx < math.inf and 0.0 < sy < math.inf):
        raise ValidationError(f"grid step {step} must be a positive real")
    xs = _axis(x_lo, x_hi, sx)
    ys = _axis(y_lo, y_hi, sy)

    best, best_val = None, math.inf
    for x in xs:
        for y in ys:
            val = objective(x, y)
            if val < best_val:
                best, best_val = (x, y), val
    if best is None or not math.isfinite(best_val):
        raise InfeasibleError("no feasible point on the search grid")

    hx, hy = sx / 2.0, sy / 2.0
    x, y = best
    for _ in range(_MAX_POLISH):
        if max(hx, hy) < min(sx, sy) / 64.0:
            break
        moved = False
        for dx, dy in ((hx, 0.0), (-hx, 0.0), (0.0, hy), (0.0, -hy), (hx, hy), (-hx, hy), (hx, -hy), (-hx, -hy)):
            cx = min(max(x + dx, x_lo), x_hi)
            cy = min(max(y + dy, y_lo), y_hi)
            val = objective(cx, cy)
            if val < best_val:
                x, y, best_val = cx, cy, val
                moved = True
        if not moved:
            hx /= 2.0
            hy /= 2.0
    return (x, y), best_val


def _axis(lo, hi, step):
    if hi == lo:
        return np.array([lo])
    count = int(math.floor((hi - lo) / step + 1e-12)) + 1
    pts = lo + step * np.arange(count)
    if pts[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        pts = np.append(pts, hi)
    else:
        pts[-1] = min(pts[-1], hi)
    return pts
