"""Brillouin-zone integration on [-pi, pi)^2.

The workhorse is the tensor-product periodic trapezoidal rule, which is
spectrally accurate for smooth 2pi-periodic integrands (and exact on
trigonometric polynomials up to the grid bandwidth).  Thermal metric
integrands are smooth except near dispersion zeros, where they develop
features of width ~ T; ``integrate_bz_refined`` handles those with local
polar grids whose radii cluster geometrically down to width/100.  The
caller computes the disk radius from the features it knows and passes it
in; ``GridSpec`` holds only resolution and tolerance, and every other
node-rule constant (ring angular counts, Gauss orders, the core) is fixed
here.

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

Memory and determinism: every node set is a list of row patches ``(g,
rows, row_weights, cols)``, the nodes ``rows x cols`` on which ``g(rows[:,
None], cols[None, :])`` gives the integrand.  A zone grid level is one or
two patches of ``f`` itself, a polar disk one patch of rings times angles
per ring angular count, a needle disk one patch of lines times nodes.  One
reduction, ``_row_sums``, evaluates whole rows in blocks of at most
``_BLOCK_VALUES`` values (at least one row; the values per node are read
off the integrand's output at the probe node), so memory grows neither
with the node set nor with the stack of integrals.  Every weighted row sum
enters one exactly rounded math.fsum per integral, so a value depends
neither on the block size, nor on the integrals stacked beside it, nor on
how many workers evaluate integrals.
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
# integrand values held per evaluated block (patch rows times columns times
# the values per node): bounds the integrand's memory whatever the batch,
# down to one row
_BLOCK_VALUES = 2 * 128 * 2048
# ring angles per ring: rings shrink their angular spacing as the radius
# decreases (narrow angular features near quadratic-dispersion directions
# need it) from the base count up to the cap
_ANGULAR_BASE = 64
_ANGULAR_CAP = 8192

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
    """Quadrature controls: resolution and tolerance only.

    base_n: points per axis of the periodic trapezoid (doubled until the
        target tolerance or ``max_doublings`` is hit).
    refine_levels: the disk ladder's highest pair of levels is
        ``(refine_levels, refine_levels + 1)``; the ladder starts one level
        below it, no lower than level 1 (see the module docstring).
    target_rel_tol: relative tolerance, judged against the largest component.
    max_doublings: most doublings of the trapezoid after base_n.

    The disk radius is not a grid setting: ``integrate_bz_refined`` takes it
    from the caller, who knows the features it must cover.
    """

    base_n: int = 128
    refine_levels: int = 3
    target_rel_tol: float = 1e-6
    max_doublings: int = 4

    def __post_init__(self):
        if self.base_n < 16:
            raise ValueError(f"base_n must be >= 16, got {self.base_n}")
        if self.refine_levels < 0:
            raise ValueError("refine_levels must be non-negative")
        if not self.target_rel_tol > 0:
            raise ValueError("target_rel_tol must be positive")
        if self.max_doublings < 1:
            raise ValueError("max_doublings must be >= 1")


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


def _row_sums(patches, m: int):
    """Weighted sum of every row of every patch ``(g, rows, weights, cols)``.

    Rows are evaluated in blocks of whole rows holding at most
    ``_BLOCK_VALUES`` values (``m`` values per node), so the integrand's
    memory is bounded by the budget (or one row), not the node set; each row
    is reduced before its weight is applied, so no weighted copy of a block
    is made.  Returns the weighted row sums (arrays with the integrand's
    leading axes and one row axis) for ``_fsum`` to combine, the nodes
    evaluated and, per independent integral, the largest |g| seen."""
    sums, nodes, fmax = [], 0, 0.0
    for g, rows, weights, cols in patches:
        rows_per_block = max(1, _BLOCK_VALUES // (cols.size * m))
        for i in range(0, rows.size, rows_per_block):
            block = rows[i : i + rows_per_block]
            vals = _eval_on_block(g, block[:, None], cols[None, :], (block.size, cols.size))
            fmax = np.maximum(fmax, _per_integral_max(vals, _batch_ndim(vals.ndim - 2)))
            sums.append(vals.sum(axis=-1) * weights[i : i + block.size])
        nodes += rows.size * cols.size
    return sums, nodes, fmax


def _fsum(parts) -> np.ndarray:
    """One math.fsum per integral over the last axis of all ``parts``:
    exactly rounded, so neither the order nor the blocking of the parts
    can change a bit."""
    rows = np.concatenate(parts, axis=-1)
    flat = rows.reshape(-1, rows.shape[-1]).tolist()
    return np.array([math.fsum(r) for r in flat]).reshape(rows.shape[:-1])


def _grid_mean(f, xs: np.ndarray, first_mirror: int):
    """Mean of the even f over the grid ``xs x xs``, from half its rows
    (``_half_rows``): one patch of ``f`` itself.

    Returns the mean, the integrand nodes evaluated and, per independent
    integral, the largest |f| seen, which sets the absolute floor below
    which a vanishing integral counts as converged."""
    n = xs.size
    rows, weights = _half_rows(n, first_mirror)
    sums, nodes, fmax = _row_sums([(f, xs[rows], weights, xs)], _values_per_node(f))
    return _fsum(sums) / float(n * n), nodes, fmax


def _doubled_mean(f, mean: np.ndarray, n: int):
    """Mean of f over the 2n zone grid from its mean over the n grid.

    The n grid is the even-index subgrid of the 2n grid on both axes, so
    only the new nodes are evaluated, as two patches under the half-grid
    row rule (negation maps odd columns onto odd columns): the odd rows in
    full and the odd columns of the even rows.  Their rows are added to
    ``n^2 mean`` by math.fsum.  Returns the mean, the nodes evaluated and
    the largest |f| seen on them."""
    xs = _zone_axis(2 * n)
    rows, weights = _half_rows(2 * n, 0)
    odd = rows % 2 == 1
    patches = [
        (f, xs[rows[odd]], weights[odd], xs),
        (f, xs[rows[~odd]], weights[~odd], xs[1::2]),
    ]
    sums, nodes, fmax = _row_sums(patches, mean.size)
    total = _fsum([float(n * n) * mean[..., None]] + sums)
    return total / float(4 * n * n), nodes, fmax


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


def _log_rule(lo: float, hi: float, order: int):
    """Gauss rule in s = log t over [lo, hi]: nodes t, geometrically
    clustered toward ``lo``, and their weights for dt (Jacobian t)."""
    xs, ws = _leggauss(order)
    s_lo, s_hi = math.log(lo), math.log(hi)
    t = np.exp(0.5 * (s_hi - s_lo) * xs + 0.5 * (s_hi + s_lo))
    return t, ws * 0.5 * (s_hi - s_lo) * t


def _polar_disk(f, center, radius: float, r_min: float, level: int, half: bool):
    """Row patches of one log-polar refinement disk: rings (rows) times
    ring angles (columns).

    Three radial panels: a Gauss rule in s = log r over [r_min, radius/2]
    where the partition weight is exactly 1 (geometric clustering toward
    the singular core), a Gauss rule in r over the transition annulus
    [radius/2, radius] where the weight falls to 0, and a small Gauss rule
    on the core r < r_min.  Conical zeros have O(1) angular structure at
    every radius; ring angular counts grow mildly toward the centre, which
    guards against moderate cone anisotropy.  The rings with one angular
    count nphi form one patch, whose ring weights carry the uniform
    angular weight 2 pi / nphi.  ``half`` keeps the first half of every
    ring's (even count of) angles, which with weight 2 is the whole disk
    when the integrand is even about the centre.
    """
    cx, cy = center
    order = 24 * (2 ** max(0, level))
    xs, ws = _leggauss(order)
    r_log, w_log = _log_rule(r_min, 0.5 * radius, order)
    r_mid = 0.25 * radius * xs + 0.75 * radius
    xc, wc = _leggauss(8)
    r_core = 0.5 * r_min * (xc + 1.0)
    r = np.concatenate([r_log, r_mid, r_core])
    # radial weights with the Jacobian r, and the bump on the annulus
    w = np.concatenate([
        w_log * r_log,
        ws * 0.25 * radius * r_mid * _bump(r_mid, radius),
        wc * 0.5 * r_min * r_core,
    ])
    boost = 2 ** max(0, level - 1)
    grow = np.maximum(1.0, np.ceil(np.sqrt(radius / (32.0 * r))))
    # even, because _ANGULAR_BASE and _ANGULAR_CAP are: the ring angles phi
    # and phi + pi pair up (half-disk rule)
    counts = np.minimum(_ANGULAR_CAP, _ANGULAR_BASE * boost * grow).astype(int)

    def rings(rr, phi):
        return f(wrap_angle(cx + rr * np.cos(phi)), wrap_angle(cy + rr * np.sin(phi)))

    patches = []
    for nphi in np.unique(counts):
        on = counts == nphi
        phi = (2.0 * math.pi / nphi) * np.arange(nphi // 2 if half else nphi)
        patches.append((rings, r[on], w[on] * (2.0 * math.pi / nphi), phi))
    return patches


def _needle_disk(f, center, axis: float, radius: float, r_min: float, level: int,
                 half: bool):
    """Row patch of one needle refinement disk: lines of constant u, the
    coordinate along the soft axis, times nodes v across it.

    The integrand has a soft (quadratic-dispersion) axis, and this log-log
    Cartesian grid aligned with it resolves the needle-shaped ridge that
    uniform polar rings cannot.  Both coordinates take one symmetric rule
    on [-radius, radius]: the Gauss-in-log rule over [r_min, radius] per
    sign and a small Gauss rule on the core |t| < r_min.  The v weights and
    the partition bump are applied inside the patch integrand.  ``half``
    keeps the second half of the u axis, u > 0 (the rule is symmetric with
    no node at 0), the mirrors of the nodes with u < 0.
    """
    cx, cy = center
    order = 24 * (2 ** max(0, level))
    t, wt = _log_rule(r_min, radius, order)
    xc, wc = _leggauss(8)
    v = np.concatenate([-t, r_min * xc, t])
    wv = np.concatenate([wt, r_min * wc, wt])
    u, wu = (v[v.size // 2 :], wv[v.size // 2 :]) if half else (v, wv)
    cu, su = math.cos(axis), math.sin(axis)

    def lines(uu, vv):
        px = wrap_angle(cx + uu * cu - vv * su)
        py = wrap_angle(cy + uu * su + vv * cu)
        return f(px, py) * (wv * _bump(np.hypot(uu, vv), radius))

    return [(lines, u, wu, v)]


def _disk_integral(f, center, radius, r_min, level, axis=None, half=False):
    """Integral of f over one disk (over its ``half`` when set), from the
    disk's row patches, reduced like every other node set.  Returns the
    integral and the nodes evaluated."""
    if axis is None:
        patches = _polar_disk(f, center, radius, r_min, level, half)
    else:
        patches = _needle_disk(f, center, axis, radius, r_min, level, half)
    sums, nodes, _ = _row_sums(patches, _values_per_node(f))
    return _fsum(sums), nodes


def integrate_bz_refined(
    f: Callable,
    singular_pts: Sequence,
    width: float,
    grid: GridSpec,
    *,
    radius: float,
    axes: Sequence[float | None] | None = None,
) -> IntegrationResult:
    """Zone integral with local refinement around singular points.

    ``singular_pts`` are the dispersion zeros (Momentum instances or (px, py)
    pairs); ``width`` sets the physical feature scale, typically the
    temperature.  Each point gets a disk of the caller's ``radius`` (capped
    so disks stay disjoint; ValueError unless positive); inside, log-polar
    grids resolve radii down to ``min(width/100, radius/64)``.  A point
    whose dispersion is soft (quadratic) along some
    direction gets that direction passed in ``axes`` (parallel to
    ``singular_pts``, None for isotropic points) and is integrated on an
    axis-aligned log-log grid instead of polar rings.

    ``f`` must be even under p -> -p.  The centres are first closed under
    inversion (see ``_inversion_classes``), so the partition-of-unity mask
    is even and the base rule can evaluate half the zone.  One disk of each
    +-K pair, and half the disk of a zone corner, is integrated and counted
    twice.  With no singular points this is exactly ``integrate_bz``.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
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
        lo, n_lo = _disk_integral(f, center, radius, r_min, levels[0], axis, own_mirror)
        hi, n_hi = _disk_integral(f, center, radius, r_min, levels[1], axis, own_mirror)
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
            finer, nodes = _disk_integral(f, center, radius, r_min, level, axis, own_mirror)
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
