"""Deterministic grid seed + pattern polish for 2-D minimisation.

The objective is an array function: ``objective(xs, ys)`` takes two float
arrays of one shape and returns the values at those points as an array of
that shape.  Each value is finite or +inf (an infeasible probe), never NaN.
Every value must depend only on its own point, not on the other points of
the call.  The whole seed grid is one call and each polish step one call on
its compass candidates.  Ties resolve to the lexicographically smallest
point because the grid is scanned row-major over the first coordinate and
only strict improvements are accepted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleError, ValidationError

# compass-polish rounds; the step halves on every round without a move
_MAX_POLISH = 60

# compass directions in the order the polish tries them, in units of the step
_DIRECTIONS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)], dtype=float)


def grid_minimize(objective, box, step):
    """Minimise the array function ``objective(x, y)`` over the rectangle ``box``.

    ``box`` is (x_lo, x_hi, y_lo, y_hi); the seed grid uses spacing
    ``step`` (a float or an (x_step, y_step) pair) and includes both
    endpoints; its first minimum in row-major order is the seed.  The seed
    is polished by a shrinking compass search until the polish step falls
    below min(x_step, y_step) / 64.  A round walks the eight directions in
    order and moves to each strictly better candidate; it evaluates the
    remaining directions from the current point in one call, and calls again
    on the directions after an accepted one, so the walk is that of a
    one-point-at-a-time search.

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
    gx, gy = np.meshgrid(_axis(x_lo, x_hi, sx), _axis(y_lo, y_hi, sy), indexing="ij")
    values = np.asarray(objective(gx.ravel(), gy.ravel()), dtype=float)
    seed = int(np.argmin(values))
    best_val = float(values[seed])
    if not math.isfinite(best_val):
        raise InfeasibleError("no feasible point on the search grid")

    hx, hy = sx / 2.0, sy / 2.0
    x, y = float(gx.flat[seed]), float(gy.flat[seed])
    for _ in range(_MAX_POLISH):
        if max(hx, hy) < min(sx, sy) / 64.0:
            break
        moved = False
        first = 0
        while first < len(_DIRECTIONS):
            steps = _DIRECTIONS[first:] * (hx, hy)
            cx = np.minimum(np.maximum(x + steps[:, 0], x_lo), x_hi)
            cy = np.minimum(np.maximum(y + steps[:, 1], y_lo), y_hi)
            vals = np.asarray(objective(cx, cy), dtype=float)
            better = np.flatnonzero(vals < best_val)
            if not better.size:
                break
            k = int(better[0])
            x, y, best_val = float(cx[k]), float(cy[k]), float(vals[k])
            first += k + 1
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
