"""Deterministic grid seed + pattern polish for 2-D minimisation.

The objective is an array function: ``objective(xs, ys)`` takes two float
arrays of one shape and returns the values at those points as an array of
that shape.  Each value is finite or +inf (an infeasible probe), never NaN.
Every value must depend only on its own point, not on the other points of
the call.  The whole seed grid is one call.  The polish keeps every value it
receives in a memo keyed on the exact bits of each point (so -0.0 and 0.0
stay apart), looks seed-grid points up in the grid, and calls the objective
only on the compass candidates found in neither, so a point already probed
is never probed again.  Each call also probes the half-step ring, so a round
after one without a move makes no call; the objective may therefore be asked
for any point of the box, also one that a one-point-at-a-time walk never
visits.  Ties resolve to the lexicographically smallest point because the
grid is scanned row-major over the first coordinate and only strict
improvements are accepted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleError, ValidationError

# compass-polish rounds; the step halves on every round without a move
_MAX_POLISH = 60

# compass directions in the order the polish tries them, in units of the step
_DIRECTIONS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)], dtype=float)

# largest seed grid (or trade-off scan grid) accepted, in points; counted before any array is built
MAX_GRID_POINTS = 10**7


def grid_minimize(objective, box, step):
    """Minimise the array function ``objective(x, y)`` over the rectangle ``box``.

    ``box`` is (x_lo, x_hi, y_lo, y_hi); the seed grid uses spacing
    ``step`` (a real or an (x_step, y_step) pair) and includes both
    endpoints; its first minimum in row-major order is the seed.  The seed
    is polished by a shrinking compass search until the polish step falls
    below min(x_step, y_step) / 64.  A round walks the eight directions in
    order and moves to each strictly better candidate, so the walk is that
    of a one-point-at-a-time search.

    A round takes the values of the remaining directions from the current
    point from the seed grid and a memo of every polish probe, and makes one
    call on those it finds in neither; no point is probed twice.  That call
    also probes the eight points at half the step around the current point
    (clipped to the box, and not found in the grid or the memo) unless that
    half step would end the polish.  A round that does not move thus leaves
    the next round's candidates known, and that round makes no call.  The
    walk is unchanged, but the objective may be asked for points of the box
    that it never visits.

    Returns ((x, y), value).  Raises ValidationError for a reversed or
    unbounded box, a step that is not a positive real or a pair of them, or
    a seed grid of more than MAX_GRID_POINTS points, and InfeasibleError
    when every grid probe is infeasible.
    """
    x_lo, x_hi, y_lo, y_hi = box
    if not (x_lo <= x_hi and y_lo <= y_hi and all(math.isfinite(v) for v in box)):
        raise ValidationError(f"search box {tuple(box)} must be finite with lo <= hi")
    sx, sy = _steps(step)
    # an axis holds at most span / step + 2 points; a span / step that overflows reads inf
    if ((float(x_hi) - float(x_lo)) / sx + 2.0) * ((float(y_hi) - float(y_lo)) / sy + 2.0) > MAX_GRID_POINTS:
        raise ValidationError(f"grid step {step!r} gives a seed grid of more than {MAX_GRID_POINTS} points")
    ax, ay = _axis(x_lo, x_hi, sx), _axis(y_lo, y_hi, sy)
    gx, gy = np.meshgrid(ax, ay, indexing="ij")
    values = np.asarray(objective(gx.ravel(), gy.ravel()), dtype=float)
    seed = int(np.argmin(values))
    best_val = float(values[seed])
    if not math.isfinite(best_val):
        raise InfeasibleError("no feasible point on the search grid")
    values = values.reshape(ax.size, ay.size)
    lo, hi = np.array([x_lo, y_lo]), np.array([x_hi, y_hi])
    # seed-grid index of each axis value, keyed on its bit pattern: a point lies on the
    # seed grid exactly when both of its coordinates are found
    x_at = {bits: i for i, bits in enumerate(ax.view(np.int64).tolist())}
    y_at = {bits: j for j, bits in enumerate(ay.view(np.int64).tolist())}
    known = {}

    hx, hy = sx / 2.0, sy / 2.0
    end = min(sx, sy) / 64.0
    point = np.array([ax[seed // ay.size], ay[seed % ay.size]])
    for _ in range(_MAX_POLISH):
        if max(hx, hy) < end:
            break
        moved = False
        first = 0
        while first < len(_DIRECTIONS):
            steps = _DIRECTIONS[first:] * (hx, hy)
            compass = len(steps)
            # the half-step ring: the next round's candidates should this one not move,
            # left out when the half step ends the polish
            if max(hx, hy) / 2.0 >= end:
                steps = np.concatenate((steps, _DIRECTIONS * (hx / 2.0, hy / 2.0)))
            cand = np.minimum(np.maximum(point + steps, lo), hi)
            # memo keys: the bit patterns of both coordinates, so -0.0 and 0.0 stay apart
            keys = list(map(tuple, cand.view(np.int64).tolist()))
            # candidates in neither the memo nor the seed grid; a key names one point
            # bit for bit, so any of its rows will do
            off = {}
            for i, (bx, by) in enumerate(keys):
                if (bx, by) not in known:
                    if bx in x_at and by in y_at:
                        known[bx, by] = float(values[x_at[bx], y_at[by]])
                    else:
                        off[bx, by] = i
            # the ring rides only on a call that a compass candidate needs
            if any(k in off for k in keys[:compass]):
                px, py = np.ascontiguousarray(cand[list(off.values())].T)
                known.update(zip(off, np.asarray(objective(px, py), dtype=float).tolist()))
            better = next((i for i, k in enumerate(keys[:compass]) if known[k] < best_val), None)
            if better is None:
                break
            point, best_val = cand[better], known[keys[better]]
            first += better + 1
            moved = True
        if not moved:
            hx /= 2.0
            hy /= 2.0
    x, y = point.tolist()
    return (x, y), best_val


def _steps(step):
    """(x_step, y_step) as floats from a positive real or a pair of positive reals."""
    try:
        sx, sy = (step, step) if np.isscalar(step) else step
        valid = 0.0 < sx < math.inf and 0.0 < sy < math.inf
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValidationError(f"grid step {step!r} must be a positive real or a pair of them")
    return float(sx), float(sy)


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
