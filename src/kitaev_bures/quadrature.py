"""Brillouin-zone integration on [-pi, pi)^2.

The workhorse is the tensor-product periodic trapezoidal rule, which is
spectrally accurate for smooth 2pi-periodic integrands (and exact on
trigonometric polynomials up to the grid bandwidth).  Thermal metric
integrands are smooth except near dispersion zeros, where they develop
features of width ~ T; ``integrate_bz_refined`` handles those with local
polar grids whose radii cluster geometrically down to width/100.

Refinement uses a smooth partition of unity rather than cutting grid cells:
the integrand is split as f = f*(1-w) + f*w with w a C-infinity radial bump
equal to 1 on the inner half of each refinement disk and 0 outside it.  The
base rule sees the globally smooth f*(1-w) (so it keeps spectral accuracy),
each disk integrates f*w in log-polar coordinates, and nothing is counted
twice.  A hard cell cut-out would destroy the trapezoid's convergence, which
is why the split is smooth.

No node is evaluated twice, and no disk is refined past what the tolerance
asks.  The n-point trapezoid grid is the even-index subgrid of the 2n-point
grid on both axes, so each doubling evaluates only the nodes it adds (the
odd rows, and the odd columns of the even rows) and adds their sum to the
previous level's (nested doublings).  Each refinement disk climbs a ladder
of levels: it first integrates the pair ``(refine_levels - 1,
refine_levels)`` (no lower than level 1) and moves to ``refine_levels + 1``
only for the integrals whose disk error ``2 |hi - lo|`` misses their share
of the tolerance, ``(tol * scale - base error) / number of disks`` with
``scale`` the largest component of base plus disks.  An integral that
climbs gets exactly the value and error of the pair ``(refine_levels,
refine_levels + 1)``.

Integrands are callables ``f(px, py)`` taking broadcastable float arrays and
returning an array of shape ``lead + broadcast(px, py).shape``, and they must
be even under p -> -p.  Every rule here evaluates half the zone: the grids
are closed under negation, so only one row of each mirror pair of rows is
evaluated and its row sum counts twice (the rows that are their own mirror
count once); refinement centres are closed under negation, so one disk of
each +-K pair counts twice and a centre that is its own mirror (a zone
corner) integrates half its disk, twice.  The contract is checked, not
assumed: every grid and disk compares f(p0) with f(-p0) at one generic probe
node and raises ValueError if they differ beyond rounding.  The optional
leading axes let one quadrature pass integrate a whole stack of components
on shared evaluations.  The last leading axis holds the components of one
integral; any axes before it index independent integrals (for instance one
per temperature).  Each independent integral is judged against its own
largest component and keeps the value of the doubling at which it
converged, so it gets exactly the value, error and flag it would get if it
were integrated alone on the same nodes.

Memory and determinism: the integrand is evaluated in blocks of whole grid
rows on the base grid and whole ``_SUM_CHUNK`` node chunks on a refinement
disk, as many as fit in ``_BLOCK_VALUES`` values (at least one row or
chunk), so memory does not grow with the number of stacked integrals beyond
one row or chunk.  The values per node are read off the integrand's own
output at the probe node.  Block boundaries and row weights therefore
depend only on the integrand's shape and the grid (the weights on row
indices alone), the partial sums of the blocks (and of the disk chunks) are
combined by math.fsum in a fixed order, and results are bit-identical
regardless of how many workers evaluate integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .spectrum import TWO_PI, wrap_angle

FOUR_PI_SQ = 4.0 * math.pi * math.pi
_SUM_CHUNK = 1 << 16
# the probe node p0: on no symmetry line of the zone or of the couplings, so
# f(p0) = f(-p0) is a test of evenness, not a coincidence
_PROBE = (0.5772156649015329, -1.2020569031595942)
# relative difference of f(p0) and f(-p0) (per independent integral, against
# its largest value) beyond which the integrand is not even
_EVEN_RTOL = 1e-12
# integrand values held per evaluated block (grid rows or disk nodes times
# the values per node): bounds the integrand's memory whatever the batch,
# down to one grid row or one disk sum chunk
_BLOCK_VALUES = 2 * 128 * 2048

__all__ = [
    "GridSpec",
    "IntegrationResult",
    "QuadratureConvergenceError",
    "compensated_sum",
    "integrate_bz",
    "integrate_bz_refined",
]


class QuadratureConvergenceError(RuntimeError):
    """Raised by callers that refuse to accept an unconverged integral.

    For a batch, ``members`` holds one entry per batch member: its result
    where it converged, and its own QuadratureConvergenceError (naming that
    member alone) where it did not.
    """

    def __init__(
        self, message: str, result: "IntegrationResult | None" = None, members=()
    ):
        super().__init__(message)
        self.result = result
        self.members = tuple(members)


@dataclass(frozen=True)
class GridSpec:
    """Quadrature controls.

    base_n: points per axis of the periodic trapezoid (doubled until the
        target tolerance or ``max_doublings`` is hit).
    refine_levels: the disk ladder's highest pair of levels is
        ``(refine_levels, refine_levels + 1)``; the ladder starts one level
        below it, no lower than level 1 (see the module docstring).
    refine_radius_factor: disk radius = factor * width around each singular
        point (callers typically pass width = T).
    target_rel_tol: relative tolerance, judged against the largest component.
    angular_base / angular_cap: ring angular resolution; rings shrink their
        angular spacing as the radius decreases (narrow angular features near
        quadratic-dispersion directions need it) up to the cap.
    """

    base_n: int = 128
    refine_levels: int = 3
    refine_radius_factor: float = 8.0
    target_rel_tol: float = 1e-6
    max_doublings: int = 4
    angular_base: int = 64
    angular_cap: int = 8192

    def __post_init__(self):
        if self.base_n < 16:
            raise ValueError(f"base_n must be >= 16, got {self.base_n}")
        if self.refine_levels < 0:
            raise ValueError("refine_levels must be non-negative")
        if not self.refine_radius_factor > 0:
            raise ValueError("refine_radius_factor must be positive")
        if not self.target_rel_tol > 0:
            raise ValueError("target_rel_tol must be positive")
        if self.max_doublings < 1 or self.angular_base < 8:
            raise ValueError("max_doublings >= 1 and angular_base >= 8 required")


@dataclass(frozen=True)
class IntegrationResult:
    """Value(s) of an integral with an error estimate and evaluation count.

    ``converged`` is a bool for a single integral and a bool array over the
    independent-integral axes for a batch; ``evaluations`` counts the
    integrand nodes actually evaluated (each once), which every integral of
    a batch shares.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    converged: bool | np.ndarray = True


def compensated_sum(values, *, chunk: int = _SUM_CHUNK) -> float:
    """Deterministic compensated sum of an array, row-major order.

    The array is flattened in C order and reduced in fixed-size chunks; the
    chunk totals are combined with math.fsum.  Chunk boundaries depend only
    on the data layout, never on worker count, so parallel evaluation of the
    chunks cannot change the result.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0.0
    if arr.size <= chunk:
        return float(math.fsum(arr))
    parts = [float(np.add.reduce(arr[i : i + chunk])) for i in range(0, arr.size, chunk)]
    return float(math.fsum(parts))


def _eval_on_block(f, px, py, tail) -> np.ndarray:
    vals = np.asarray(f(px, py), dtype=float)
    if vals.ndim < len(tail) or vals.shape[-len(tail) :] != tail:
        vals = vals + np.zeros(tail)
    return vals


def _block_units(values_per_unit: int) -> int:
    """Units (grid rows, disk sum chunks) of ``values_per_unit`` values each
    that one evaluated block holds: as many as the budget allows, at least
    one."""
    return max(1, _BLOCK_VALUES // values_per_unit)


def _values_per_node(f) -> int:
    """Values ``f`` returns per node, from its output at the probe node.

    Read from the output, not from an attribute of ``f``, so a wrapped
    integrand blocks exactly as the bare one does.  The same call evaluates
    ``f`` at p0 and -p0 and raises ValueError when they differ beyond
    rounding: the half-zone rules are exact only for even integrands."""
    px = np.array([_PROBE[0], -_PROBE[0]])
    py = np.array([_PROBE[1], -_PROBE[1]])
    vals = _eval_on_block(f, px, py, (2,))
    at_p0, at_minus_p0 = vals[..., 0], vals[..., 1]
    nb = _batch_ndim(at_p0.ndim)
    scale = np.maximum(_per_integral_max(at_p0, nb), _per_integral_max(at_minus_p0, nb))
    if np.any(_per_integral_max(at_p0 - at_minus_p0, nb) > _EVEN_RTOL * scale):
        raise ValueError(
            "integrand is not even under p -> -p: f(p0) != f(-p0) at "
            f"p0 = {_PROBE}; the zone rules evaluate half the zone and require "
            "f(-p) = f(p)"
        )
    return at_p0.size


def _batch_ndim(lead_ndim: int) -> int:
    """Number of leading axes that index independent integrals."""
    return max(lead_ndim - 1, 0)


def _per_integral_max(x: np.ndarray, nb: int) -> np.ndarray:
    """Largest |x| over every axis after the first ``nb`` (one per integral)."""
    x = np.abs(np.asarray(x, dtype=float))
    if x.ndim == nb:
        return x
    return x.reshape(x.shape[:nb] + (-1,)).max(axis=-1)


def _half_rows(n: int, first_mirror: int):
    """Indices and weights of the rows one half-grid rule evaluates.

    The axis is closed under negation: node k is minus node
    ``(first_mirror - k) % n`` (``first_mirror`` is 0 on the zone axis, whose
    nodes -pi and 0 are their own mirrors, and n - 1 on the centred odd
    axis, whose middle node is).  Negating p maps row k onto its mirror row
    with the columns reversed, so both rows have the same sum over any
    column set closed under negation: only the rows ``k <= mirror(k)`` are
    evaluated, and each row sum counts twice, a self-mirror row once.  Rows
    are chosen by index, never by comparing nodes to 0, so odd and
    non-power-of-two n stay exact."""
    k = np.arange(n)
    mirror = (first_mirror - k) % n
    kept = k <= mirror
    return k[kept], np.where(k == mirror, 1.0, 2.0)[kept]


def _row_sums(f, rows: np.ndarray, weights: np.ndarray, cols: np.ndarray, m: int):
    """Weighted sum of f over the nodes ``rows x cols``, in row blocks.

    Rows are evaluated and summed in blocks of whole rows holding at most
    ``_BLOCK_VALUES`` values (``m`` values per node), so the integrand's
    memory is bounded by the budget (or one row), not the whole grid; each
    row is reduced before its weight is applied, so no weighted copy of a
    block is made.  Returns the per-block sums, for the caller to combine by
    math.fsum (``_fsum``), the nodes evaluated and, per independent
    integral, the largest |f| seen."""
    rows_per_block = _block_units(cols.size * m)
    block_sums = []
    fmax = 0.0
    for i in range(0, rows.size, rows_per_block):
        block = rows[i : i + rows_per_block]
        vals = _eval_on_block(f, block[:, None], cols[None, :], (block.size, cols.size))
        fmax = np.maximum(fmax, _per_integral_max(vals, _batch_ndim(vals.ndim - 2)))
        block_sums.append((vals.sum(axis=-1) * weights[i : i + block.size]).sum(axis=-1))
    return block_sums, rows.size * cols.size, fmax


def _fsum(parts) -> np.ndarray:
    """math.fsum of equally shaped arrays, element by element, in list order."""
    stacked = np.stack(parts, axis=0)
    flat = stacked.reshape(stacked.shape[0], -1)
    total = np.array([math.fsum(flat[:, j]) for j in range(flat.shape[1])])
    return total.reshape(stacked.shape[1:])


def _grid_mean(f, xs: np.ndarray, first_mirror: int):
    """Mean of the even f over the grid ``xs x xs``, from half its rows
    (``_half_rows``), summed in row blocks (``_row_sums``).

    Returns the mean, the integrand nodes evaluated and, per independent
    integral, the largest |f| seen, which sets the absolute floor below
    which a vanishing integral counts as converged."""
    n = xs.size
    rows, weights = _half_rows(n, first_mirror)
    parts, nodes, fmax = _row_sums(f, xs[rows], weights, xs, _values_per_node(f))
    return _fsum(parts) / float(n * n), nodes, fmax


def _doubled_mean(f, mean: np.ndarray, n: int):
    """Mean of f over the 2n zone grid from its mean over the n grid.

    The n grid is the even-index subgrid of the 2n grid on both axes, so
    only the new nodes are evaluated: the odd rows in full and the odd
    columns of the even rows, each under the half-grid row rule (negation
    maps odd columns onto odd columns).  Their sum is added to ``n^2 mean``
    by math.fsum.  Returns the mean, the nodes evaluated and the largest
    |f| seen on them."""
    xs = _zone_axis(2 * n)
    rows, weights = _half_rows(2 * n, 0)
    odd = rows % 2 == 1
    m = mean.size
    full, n_full, fmax_full = _row_sums(f, xs[rows[odd]], weights[odd], xs, m)
    part, n_part, fmax_part = _row_sums(f, xs[rows[~odd]], weights[~odd], xs[1::2], m)
    total = _fsum([float(n * n) * mean] + full + part)
    return total / float(4 * n * n), n_full + n_part, np.maximum(fmax_full, fmax_part)


def _zone_axis(n: int) -> np.ndarray:
    """The n nodes -pi + 2 pi k / n of the periodic trapezoid on one axis."""
    return -math.pi + (2.0 * math.pi / n) * np.arange(n)


def _as_scalar_like(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


def _as_flag(done: np.ndarray):
    return bool(done) if np.ndim(done) == 0 else done


def _freeze(mask: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``new`` where the integral is still open, ``old`` where it froze."""
    open_ = np.reshape(mask, np.shape(mask) + (1,) * (new.ndim - np.ndim(mask)))
    return np.where(open_, new, old)


def integrate_bz(f: Callable, grid: GridSpec) -> IntegrationResult:
    """Periodic trapezoid over the zone with resolution doubling.

    ``f`` must be even under p -> -p (see the module docstring): the base
    level evaluates half its grid, and each doubling only the half of the
    nodes it adds (``_doubled_mean``), so no node is evaluated twice.  The
    rule at base_n points per axis is compared against 2*base_n (and so on,
    up to ``max_doublings``); the difference of successive levels is the
    reported error estimate.  Each independent integral stops at the first
    doubling that meets ``target_rel_tol`` against its own largest
    component; the doubling continues while any integral is open.  Failure
    to meet the tolerance is reported through ``converged=False``, never
    silently.
    """
    n = grid.base_n
    prev, evaluations, fmax = _grid_mean(f, _zone_axis(n), 0)
    nb = _batch_ndim(prev.ndim)
    value = err = np.zeros(prev.shape)
    done = np.zeros(prev.shape[:nb], dtype=bool)
    for _ in range(grid.max_doublings):
        cur, nodes, fmax_cur = _doubled_mean(f, prev, n)
        n *= 2
        fmax = np.maximum(fmax, fmax_cur)
        evaluations += nodes
        value = _freeze(~done, FOUR_PI_SQ * cur, value)
        err = _freeze(~done, FOUR_PI_SQ * np.abs(cur - prev), err)
        scale = np.maximum(_per_integral_max(value, nb), 1e-300)
        # a genuinely vanishing component can never satisfy a relative test;
        # errors at the round-off floor of the evaluations count as converged
        floor = 1e-13 * FOUR_PI_SQ * fmax
        bound = np.maximum(grid.target_rel_tol * scale, floor)
        done = done | (_per_integral_max(err, nb) <= bound)
        if np.all(done):
            break
        prev = cur
    return IntegrationResult(
        _as_scalar_like(value), _as_scalar_like(err), evaluations, _as_flag(done)
    )


# ---------------------------------------------------------------------------
# local refinement


def _point_xy(p) -> tuple[float, float]:
    if hasattr(p, "px"):
        return float(p.px), float(p.py)
    x, y = p
    return float(x), float(y)


def _same_point(a, b) -> bool:
    return all(abs(float(wrap_angle(u - v))) < 1e-8 for u, v in zip(a, b))


def _inversion_classes(points, axes) -> list[tuple[tuple[float, float], float | None, bool]]:
    """The centre set closed under p -> -p, one entry per mirror class.

    Centres are wrapped and kept once (first wins).  An entry is
    ``(centre, axis, own_mirror)``.  A centre within 1e-8 of its mirror is a
    zone corner and is snapped onto it exactly (``own_mirror``).  Any other
    centre K stands for itself and its mirror -K, given or not; a given -K
    adds nothing, and K's axis serves both (lam is even, so its Hessian at
    -K is the one at K).
    """
    out: list[tuple[tuple[float, float], float | None, bool]] = []
    for p, axis in zip(points, axes):
        c = tuple(float(wrap_angle(v)) for v in _point_xy(p))
        if any(_same_point(c, q) or _same_point(c, (-q[0], -q[1])) for q, _, _ in out):
            continue
        own_mirror = _same_point(c, (-c[0], -c[1]))
        if own_mirror:
            c = tuple(float(wrap_angle(math.pi * round(v / math.pi))) for v in c)
        out.append((c, axis, own_mirror))
    return out


def _fold(x):
    """|x| reduced onto [0, pi] by the nearest multiple of 2 pi: the distance
    on the circle, exactly even in x."""
    return np.abs(x - TWO_PI * np.round(x / TWO_PI))


def _torus_dist(px, py, cx: float, cy: float):
    """Distance on the torus, exactly even in the displacement: the distance
    of -p to c is bit for bit the distance of p to -c."""
    return np.hypot(_fold(px - cx), _fold(py - cy))


def _corner_dist(px, py, cx: float, cy: float):
    """Distance on the torus to a zone corner (each coordinate 0 or -pi),
    from |p| per axis: exactly even in p."""
    return np.hypot(_fold(_fold(px) - abs(cx)), _fold(_fold(py) - abs(cy)))


# sharpness of the partition step: erf tails at the clamp points are
# ~ 4e-20, far below the 1e-12 smooth-agreement budget, while the step
# stays effectively analytic (geometric spectral decay) for the trapezoid
_STEP_SHARPNESS = 13.0
_STEP_LO = math.erf(-0.5 * _STEP_SHARPNESS)
_STEP_HI = math.erf(0.5 * _STEP_SHARPNESS)


def _erf_step(t):
    """Monotone step: exactly 0 for t <= 0, exactly 1 for t >= 1, erf-shaped
    (renormalized and clamped) in between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if np.any(mid):
        z = _STEP_SHARPNESS * (t[mid] - 0.5)
        e = np.fromiter((math.erf(v) for v in z), dtype=float, count=z.size)
        out[mid] = np.clip((e - _STEP_LO) / (_STEP_HI - _STEP_LO), 0.0, 1.0)
    return out


def _bump(r, radius: float):
    """Radial weight: 1 inside radius/2, 0 outside radius, smooth between."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return _erf_step((radius - r) / (0.5 * radius))


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _angular_count(r: float, radius: float, grid: GridSpec, level: int) -> int:
    # conical zeros have O(1) angular structure at every radius; mild growth
    # toward the center guards against moderate cone anisotropy
    boost = 2 ** max(0, level - 1)
    n = grid.angular_base * boost * max(1, math.ceil(math.sqrt(radius / (32.0 * r))))
    n = int(min(grid.angular_cap, n))
    # even, so that the ring angles phi and phi + pi pair up (half-disk rule)
    return n + n % 2


def _disk_nodes(center, radius: float, r_min: float, grid: GridSpec, level: int,
                half: bool = False):
    """Log-polar nodes and weights covering one refinement disk.

    Three radial panels: a Gauss rule in s = log r over [r_min, radius/2]
    where the partition weight is exactly 1 (geometric clustering toward
    the singular core), a Gauss rule in r over the transition annulus
    [radius/2, radius] where the weight falls to 0, and a small Gauss rule
    on the core r < r_min.  Ring angular counts grow toward the center.
    ``half`` keeps the first half of every ring's (even count of) angles,
    which with weight 2 is the whole disk when the integrand is even about
    the centre.
    """
    cx, cy = center
    order = 24 * (2 ** max(0, level))
    rings: list[tuple[float, float]] = []  # (r, radial weight incl. Jacobian & bump)
    # panel A: s = log r on [log r_min, log(radius/2)], Jacobian r^2, weight 1
    xs, ws = _leggauss(order)
    s_lo, s_hi = math.log(r_min), math.log(0.5 * radius)
    for x, w in zip(xs, ws):
        s = 0.5 * (s_hi - s_lo) * x + 0.5 * (s_hi + s_lo)
        r = math.exp(s)
        rings.append((r, w * 0.5 * (s_hi - s_lo) * r * r))
    # panel B: r on [radius/2, radius], Jacobian r, erf transition weight
    xt, wt = _leggauss(order)
    for x, w in zip(xt, wt):
        r = 0.25 * radius * x + 0.75 * radius
        rings.append((r, w * 0.25 * radius * r * float(_bump(r, radius)[0])))
    # core: r on (0, r_min], Jacobian r, weight 1
    xc, wc = _leggauss(8)
    for x, w in zip(xc, wc):
        r = 0.5 * r_min * (x + 1.0)
        rings.append((r, w * 0.5 * r_min * r))
    counts = [_angular_count(r_i, radius, grid, level) for r_i, _ in rings]
    kept = [nphi // 2 if half else nphi for nphi in counts]
    px, py, wt = (np.empty(sum(kept)) for _ in range(3))
    start = 0
    for (r_i, w_i), nphi, n_kept in zip(rings, counts, kept):
        phi = (2.0 * math.pi / nphi) * np.arange(n_kept)
        ring = slice(start, start + n_kept)
        px[ring] = wrap_angle(cx + r_i * np.cos(phi))
        py[ring] = wrap_angle(cy + r_i * np.sin(phi))
        wt[ring] = w_i * (2.0 * math.pi / nphi)
        start += n_kept
    return px, py, wt


def _clustered_axis(radius: float, t_min: float, order: int):
    """Symmetric 1-d nodes/weights on [-radius, radius], geometrically
    clustered toward 0 (Gauss in log |t| per sign, plus a small core rule)."""
    xs, ws = _leggauss(order)
    s_lo, s_hi = math.log(t_min), math.log(radius)
    s = 0.5 * (s_hi - s_lo) * xs + 0.5 * (s_hi + s_lo)
    w_s = ws * 0.5 * (s_hi - s_lo)
    t_pos = np.exp(s)
    w_pos = w_s * t_pos  # dt = t ds
    xc, wc = _leggauss(8)
    t_core = t_min * xc
    w_core = t_min * wc
    nodes = np.concatenate([-t_pos, t_core, t_pos])
    weights = np.concatenate([w_pos, w_core, w_pos])
    return nodes, weights


def _needle_disk_nodes(center, axis: float, radius: float, r_min: float,
                       grid: GridSpec, level: int, half: bool = False):
    """Nodes for a disk whose integrand has a soft (quadratic-dispersion)
    axis: a log-log Cartesian grid aligned with the axis resolves the
    needle-shaped ridge that uniform polar rings cannot.  ``half`` keeps
    the nodes with u > 0, the mirrors of those with u < 0."""
    cx, cy = center
    order = 24 * (2 ** max(0, level))
    u, wu = _clustered_axis(radius, r_min, order)
    v, wv = _clustered_axis(radius, r_min, order)
    if half:
        # the clustered axis is symmetric with no node at 0: its second
        # half is exactly the positive nodes
        u, wu = u[u.size // 2 :], wu[wu.size // 2 :]
    cu, su = math.cos(axis), math.sin(axis)
    uu = u[:, None]
    vv = v[None, :]
    px = wrap_angle(cx + uu * cu - vv * su)
    py = wrap_angle(cy + uu * su + vv * cu)
    w2d = (wu[:, None] * wv[None, :]) * _bump(np.hypot(uu, vv), radius)
    return px.ravel(), py.ravel(), w2d.ravel()


def _disk_integral(f, center, radius, r_min, grid, level, axis=None, half=False):
    """Integral of f over one disk (over its ``half`` when set), evaluated
    in node blocks.

    A block holds as many whole ``_SUM_CHUNK`` node chunks as fit in the
    ``_BLOCK_VALUES`` budget (at least one) and is reduced into
    ``_SUM_CHUNK`` partial sums that math.fsum combines, which is exactly
    ``compensated_sum`` over the whole disk (a disk of at most
    ``_SUM_CHUNK`` nodes is one plain fsum)."""
    if axis is None:
        px, py, wt = _disk_nodes(center, radius, r_min, grid, level, half)
    else:
        px, py, wt = _needle_disk_nodes(center, axis, radius, r_min, grid, level, half)
    m = _values_per_node(f)
    block_nodes = _SUM_CHUNK * _block_units(_SUM_CHUNK * m)
    terms = []
    for i in range(0, px.size, block_nodes):
        block = slice(i, i + block_nodes)
        vals = _eval_on_block(f, px[block], py[block], (wt[block].size,)) * wt[block]
        if px.size <= _SUM_CHUNK:
            terms.append(vals)
        else:
            terms += [
                np.add.reduce(vals[..., j : j + _SUM_CHUNK], axis=-1)[..., None]
                for j in range(0, vals.shape[-1], _SUM_CHUNK)
            ]
    stacked = np.concatenate(terms, axis=-1)
    out = np.empty(stacked.shape[:-1])
    for idx in np.ndindex(out.shape):
        out[idx] = math.fsum(stacked[idx])
    return out, px.size


def integrate_bz_refined(
    f: Callable,
    singular_pts: Sequence,
    width: float,
    grid: GridSpec,
    *,
    axes: Sequence[float | None] | None = None,
) -> IntegrationResult:
    """Zone integral with local refinement around singular points.

    ``singular_pts`` are the dispersion zeros (Momentum instances or (px, py)
    pairs); ``width`` sets the physical feature scale, typically the
    temperature.  Each point gets a disk of radius factor*width (capped so
    disks stay disjoint); inside, log-polar grids resolve radii down to
    width/100.  A point whose dispersion is soft (quadratic) along some
    direction gets that direction passed in ``axes`` (parallel to
    ``singular_pts``, None for isotropic points) and is integrated on an
    axis-aligned log-log grid instead of polar rings.

    ``f`` must be even under p -> -p.  The centres are first closed under
    inversion (see ``_inversion_classes``), so the partition-of-unity mask
    is even and the base rule can evaluate half the zone.  One disk of each
    +-K pair, and half the disk of a zone corner, is integrated and counted
    twice.  With no singular points this is exactly ``integrate_bz``.
    """
    raw = list(singular_pts)
    axes_list = [None] * len(raw) if axes is None else list(axes)
    if len(axes_list) != len(raw):
        raise ValueError("axes must parallel singular_pts")
    classes = _inversion_classes(raw, axes_list)
    if not classes:
        return integrate_bz(f, grid)
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    points = [c for c, _, _ in classes]
    points += [(-c[0], -c[1]) for c, _, own_mirror in classes if not own_mirror]
    radius = grid.refine_radius_factor * width
    cap = 0.5 * math.pi
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = float(
                _torus_dist(points[i][0], points[i][1], points[j][0], points[j][1])
            )
            cap = min(cap, 0.499 * d)
    radius = min(radius, cap)
    r_min = min(width / 100.0, radius / 64.0)

    def masked(px, py):
        vals = np.asarray(f(px, py), dtype=float)
        shape = np.broadcast(np.asarray(px), np.asarray(py)).shape
        # w is exactly 0 where the p_x part of every distance (computed as
        # the distances compute it) reaches the radius, so it is formed and
        # applied only on the rows (first node axis) with a node nearer
        near = np.zeros(np.shape(px), dtype=bool)
        for (cx, _), _, own_mirror in classes:
            if own_mirror:
                near |= _fold(_fold(px) - abs(cx)) < radius
            else:
                near |= (_fold(px - cx) < radius) | (_fold(px + cx) < radius)
        rows = np.flatnonzero(np.broadcast_to(near, shape).reshape(shape[0], -1).any(axis=1))
        if rows.size == 0:
            return vals
        qx, qy = np.broadcast_to(px, shape)[rows], np.broadcast_to(py, shape)[rows]
        w = np.zeros(qx.shape)
        # even bit for bit: a corner's distance is even in p, and K and -K
        # trade places under p -> -p in a sum whose order does not matter
        for (cx, cy), _, own_mirror in classes:
            if own_mirror:
                w = w + _bump(_corner_dist(qx, qy, cx, cy), radius)
            else:
                w = w + (
                    _bump(_torus_dist(qx, qy, cx, cy), radius)
                    + _bump(_torus_dist(qx, qy, -cx, -cy), radius)
                )
        if not vals.flags.owndata or vals.shape[vals.ndim - len(shape) :] != shape:
            vals = vals * np.ones(shape)  # scaled in place below: own a full copy
        at_rows = (Ellipsis, rows) + (slice(None),) * (len(shape) - 1)
        vals[at_rows] *= 1.0 - w
        return vals

    base = integrate_bz(masked, grid)
    value = np.asarray(base.value, dtype=float).copy()
    err = np.asarray(base.error_estimate, dtype=float).copy()
    evaluations = base.evaluations
    nb = _batch_ndim(value.ndim)
    top = max(1, grid.refine_levels)
    levels = range(max(1, top - 1), top + 2)
    disks = []
    for center, axis, own_mirror in classes:
        lo, n_lo = _disk_integral(f, center, radius, r_min, grid, levels[0], axis, own_mirror)
        hi, n_hi = _disk_integral(f, center, radius, r_min, grid, levels[1], axis, own_mirror)
        evaluations += n_lo + n_hi
        disks.append((lo, hi))
    # each disk's share of what the tolerance leaves after the base error,
    # against the largest component of base plus disks
    scale = _per_integral_max(value + sum(2.0 * hi for _, hi in disks), nb)
    share = (grid.target_rel_tol * scale - _per_integral_max(err, nb)) / len(classes)
    for (center, axis, own_mirror), (lo, hi) in zip(classes, disks):
        # a member climbs to the next level only while its disk error misses
        # its share, and keeps the first pair that meets it
        for level in levels[2:]:
            open_ = _per_integral_max(2.0 * np.abs(hi - lo), nb) > share
            if not np.any(open_):
                break
            finer, nodes = _disk_integral(
                f, center, radius, r_min, grid, level, axis, own_mirror
            )
            evaluations += nodes
            lo, hi = _freeze(open_, hi, lo), _freeze(open_, finer, hi)
        # the disk at -K, or the corner disk's other half, is the mirror
        # image of the one integrated
        value = value + 2.0 * hi
        err = err + 2.0 * np.abs(hi - lo)
    # the base flag judged its error against the masked partial value only;
    # what matters is the combined error against the full integral
    scale = np.maximum(_per_integral_max(value, nb), 1e-300)
    converged = _per_integral_max(err, nb) <= grid.target_rel_tol * scale
    return IntegrationResult(
        _as_scalar_like(value), _as_scalar_like(err), evaluations, _as_flag(converged)
    )
