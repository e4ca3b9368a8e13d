"""Brillouin-zone integration on [-pi, pi)^2.

The workhorse is the tensor-product periodic trapezoidal rule, which is
spectrally accurate for smooth 2pi-periodic integrands (and exact on
trigonometric polynomials up to the grid bandwidth).  Thermal metric
integrands are smooth except near dispersion zeros, where they develop
features of width ~ T; ``integrate_bz_refined`` handles those with local
polar grids whose radii cluster geometrically down to ``r_min``.  The
caller decides the whole refinement geometry from the features it knows:
one disk ``(centre, axis)`` for the one mirror class of dispersion zeros,
its radius and ``r_min`` (see ``thermal_metric._refinement_plan``).  This
module integrates exactly that disk and refuses a geometry it cannot
integrate rather than adjusting it.  ``GridSpec`` holds only resolution and tolerance, and
every other node-rule constant (the ring angles per level, Gauss orders,
the core) is fixed here.

Refinement uses a smooth partition of unity rather than cutting grid cells:
the integrand is split as f = f*(1-w) + f*w with w a C-infinity radial bump
equal to 1 on the inner half of the refinement disk and 0 outside it.  The
base rule sees the globally smooth f*(1-w) (so it keeps spectral accuracy),
the disk integrates f*w in log-polar coordinates, and nothing is counted
twice.  A hard cell cut-out would destroy the trapezoid's convergence, which
is why the split is smooth.

No node is evaluated twice, and neither the grid nor the disk is refined
past what the tolerance asks: both ladders start at their coarsest rung.
The n-point trapezoid grid is the even-index subgrid of the 2n-point grid
on both axes, so each doubling evaluates only the nodes it adds (the odd
rows, and the odd columns of the even rows) and adds their sum to the
previous level's (nested doublings); the default ladder runs from n = 32
to 2048.  It keeps the finer rung and reports that rung's error: the
difference ``d_k`` of the last two rungs, times ``2 r`` where the
differences contract at a rate ``r < 1/2``, which bounds the tail ``d_k r
/ (1 - r)`` of a ladder that keeps contracting that fast; on a grid
coarser than the integrand's narrowest known feature (for a refined
integral, the partition ramp) it reports ``d_k`` (see ``integrate_bz``).
The refinement disk climbs a ladder of levels and reports ``2 |hi - lo|``,
the error of its coarser level of the pair: it first
integrates the pair ``(1, 2)`` and moves one level up, at most to
``refine_levels + 1``, only for the integrals whose disk error ``2 |hi -
lo|`` misses what the tolerance leaves after the base error, ``tol *
scale - base error``, with ``scale`` the largest component of the total,
of the base or of the disk part (the parts of an integral that vanishes
by symmetry cancel; the flag is judged on the same scale).  An integral
keeps the first pair that meets it; one that climbs to the top gets
exactly the value and error of the pair ``(refine_levels, refine_levels +
1)``.  The index geometry of a grid level depends on no integrand, so it
is built once per process (``_zone_geometry``).

Integrands are callables ``f(px, py)`` taking broadcastable float arrays and
returning an array of shape ``lead + broadcast(px, py).shape``.  They must be
2 pi-periodic in each coordinate: a refinement disk passes its nodes as
``centre + offset``, unwrapped, so a disk node may lie up to the disk radius
outside [-pi, pi)^2 (the thermal integrands read only sines and cosines of
the momenta).  They must also be even under p -> -p.  Every rule here is
one orbit rule: it evaluates one node per orbit of the integrand's symmetry
group and weights it by the nodes of its orbit, which every node set allows
because it is closed under the group.  The group is {e, -1} (the half rule)
unless the integrand is also invariant under the reflection s: (p_x, p_y)
-> (p_y, p_x), which makes it {e, -1, s, -s} (the quarter rule).

* Under -1 only one row of each mirror pair of grid rows is evaluated and
  its row sum counts twice (the rows that are their own mirror count once);
  the refinement disk stands for its mirror class, so a disk at K counts
  twice for K and -K and a disk on its own mirror (a zone corner)
  integrates half its disk, twice.
* Under s as well the grid keeps, of those rows, a triangle (on the zone
  grid p_x in [-pi, 0] and |p_y| >= |p_x|, see ``_zone_geometry``): s and
  -s exchange the nodes on the two sides of |p_y| = |p_x|, so, as -1 does
  on the rows, a kept node counts twice and a node on that line once.  The
  disk keeps the sector of the reflection that fixes its centre: a corner
  (fixed by s and -s) a quarter, K = (a, -a) (fixed by -s) a half.

Evenness is the contract, checked, not assumed: every grid and disk
compares f(p0) with f(-p0) at a generic probe node and raises ValueError if
they differ beyond rounding.  Invariance under s is detected: f(s p) must
equal f(p) bit for bit at two generic probe nodes; otherwise the rules
stay the half rule.  A refined integral of an invariant f needs a disk
centre fixed by s or -s, or one whose image under s lies within r_min of
the disk's class (taken by the half rule), and is refused otherwise.

The optional leading axes let one quadrature pass integrate a whole stack
of components on shared evaluations.  The last leading axis holds the
components of one integral; any axes before it index independent integrals
(for instance one per temperature).  Each independent integral is judged
against its own largest component and keeps the value of the doubling at
which it converged, so it gets exactly the value, error and flag it would
get if it were integrated alone on the same nodes.

Memory and determinism: every node set is a list of row patches ``(g,
rows, row_weights, cols)``, the nodes ``rows x cols`` on which
``g(rows[:, None], cols[None, :])`` gives the integrand.  A zone grid level
is a few patches of grid rows times grid columns (and, for the quarter
rule, one of listed nodes), a polar disk one patch of rings times angles
per radial panel, a needle disk one patch of lines times nodes.  One
reduction, ``_row_sums``, evaluates whole rows in blocks of at most
``_BLOCK_VALUES`` values (at least one row; the values per node are read
off the integrand's output at the probe nodes), so memory grows neither
with the node set nor with the stack of integrals.  Every weighted row sum
enters one exactly rounded math.fsum per integral, so a value depends
neither on the block size, nor on the integrals stacked beside it, nor on
how many workers evaluate integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectrum import TWO_PI

FOUR_PI_SQ = 4.0 * math.pi * math.pi
# the probe nodes p0 and q0: on no symmetry line of the zone or of the
# couplings, so f(p0) = f(-p0) is a test of evenness, and f(s p) = f(p) at
# both a test of the reflection s: (p_x, p_y) -> (p_y, p_x), not a coincidence
_PROBE = ((0.5772156649015329, -1.2020569031595942), (1.6180339887498949, 0.36787944117144233))
# relative difference of f(p0) and f(-p0) (per independent integral, against
# its largest value) beyond which the integrand is not even
_EVEN_RTOL = 1e-12
# integrand values held per evaluated block (patch rows times columns times
# the values per node): bounds the integrand's memory whatever the batch,
# down to one row
_BLOCK_VALUES = 2 * 128 * 2048
# rows per band of the quarter-zone grid rule, and nodes per row of its
# listed nodes (see _zone_patches): a band's triangle costs about its rows
# squared in listed nodes, and each band one more call of the integrand
_BAND_ROWS = 64
_LIST_COLS = 256
# ring angles of every ring of a level-1 polar disk, doubled per level
_ANGULAR_BASE = 64

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

    base_n: points per axis of the coarsest periodic trapezoid (doubled
        until the target tolerance or ``max_doublings`` is hit).
    refine_levels: at least 1; the disk ladder starts at the pair of
        levels ``(1, 2)`` and climbs up to ``(refine_levels,
        refine_levels + 1)`` (see the module docstring).
    target_rel_tol: relative tolerance, judged against the largest component
        (of a refined integral, of its total, base part or disk part).
    max_doublings: most doublings of the trapezoid after base_n; the
        defaults climb from 32 to 32 * 2**6 = 2048 points per axis.

    The disk radius is not a grid setting: ``integrate_bz_refined`` takes it
    from the caller, who knows the features it must cover.
    """

    base_n: int = 32
    refine_levels: int = 3
    target_rel_tol: float = 1e-6
    max_doublings: int = 6

    def __post_init__(self):
        if self.base_n < 16:
            raise ValueError(f"base_n must be >= 16, got {self.base_n}")
        if self.refine_levels < 1:
            raise ValueError(f"refine_levels must be >= 1, got {self.refine_levels}")
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


def compensated_sum(values) -> float:
    """Exactly rounded sum of every element of an array (one math.fsum), so
    neither the order nor the layout of the elements can change a bit."""
    return math.fsum(np.asarray(values, dtype=np.float64).ravel().tolist())


def _eval_on_block(f, px, py, tail) -> np.ndarray:
    vals = np.asarray(f(px, py), dtype=float)
    if vals.ndim < len(tail) or vals.shape[-len(tail) :] != tail:
        vals = vals + np.zeros(tail)
    return vals


def _probe(f) -> tuple[int, bool]:
    """Values ``f`` returns per node, and whether ``f`` is invariant under s.

    One call evaluates ``f`` at p0, -p0, s p0, q0 and s q0.  Evenness is the
    contract of every rule: ValueError when f(p0) and f(-p0) differ beyond
    rounding.  Invariance under s is detected, not required: ``f`` counts as
    invariant when f(s p) equals f(p) bit for bit at both probe nodes (a
    coupling an ulp off jx = jy can still match there) and does not vanish
    at both (a cold classical integrand underflows to 0 there whatever the
    couplings).  Both are read from the output alone, so a wrapped
    integrand is integrated exactly as the bare one is."""
    (x0, y0), (x1, y1) = _PROBE
    px = np.array([x0, -x0, y0, x1, y1])
    py = np.array([y0, -y0, x0, y1, x1])
    vals = _eval_on_block(f, px, py, (5,))
    at_p0, at_minus_p0 = vals[..., 0], vals[..., 1]
    nb = _batch_ndim(at_p0.ndim)
    scale = np.maximum(_per_integral_max(at_p0, nb), _per_integral_max(at_minus_p0, nb))
    if np.any(_per_integral_max(at_p0 - at_minus_p0, nb) > _EVEN_RTOL * scale):
        raise ValueError(
            "integrand is not even under p -> -p: f(p0) != f(-p0) at "
            f"p0 = {_PROBE[0]}; the zone rules evaluate at most half the zone "
            "and require f(-p) = f(p)"
        )
    invariant = np.array_equal(at_p0, vals[..., 2]) and np.array_equal(vals[..., 3], vals[..., 4])
    return at_p0.size, invariant and bool(np.any(vals[..., (0, 3)]))


def _batch_ndim(lead_ndim: int) -> int:
    """Number of leading axes that index independent integrals."""
    return max(lead_ndim - 1, 0)


def _per_integral_max(x: np.ndarray, nb: int) -> np.ndarray:
    """Largest |x| over every axis after the first ``nb`` (one per integral),
    as max(max x, -min x) without an |x| copy (NaN propagates; adding 0.0
    turns a -0.0 into 0.0)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == nb:
        return np.abs(x)
    x = x.reshape(x.shape[:nb] + (-1,))
    return np.maximum(x.max(axis=-1), -x.min(axis=-1)) + 0.0


def _mirror_fold(n: int, first_mirror: int):
    """Indices and weights one mirror keeps of an axis of n nodes.

    The mirror maps node k onto node ``(first_mirror - k) % n``; only the
    nodes ``k <= mirror(k)`` are kept, each standing for itself and its
    mirror (weight 2), a node on its own mirror for itself (weight 1).
    Nodes are chosen by index, never by comparing coordinates, so odd and
    non-power-of-two n stay exact."""
    k = np.arange(n)
    mirror = (first_mirror - k) % n
    kept = k <= mirror
    return k[kept], np.where(k == mirror, 1.0, 2.0)[kept]


def _row_sums(patches, m: int, track_max: bool):
    """Weighted sum of every row of every patch ``(g, rows, weights, cols)``.

    Rows are evaluated in blocks of whole rows holding at most
    ``_BLOCK_VALUES`` values (``m`` values per node), so the integrand's
    memory is bounded by the budget (or one row), not the node set; each row
    is reduced before its weight is applied, so no weighted copy of a block
    is made.  Returns the weighted row sums (arrays with the integrand's
    leading axes and one row axis) for ``_fsum`` to combine, the nodes
    evaluated and, per independent integral, the largest |g| seen (0.0
    unless ``track_max``)."""
    sums, nodes, fmax = [], 0, 0.0
    for g, rows, weights, cols in patches:
        rows_per_block = max(1, _BLOCK_VALUES // (cols.size * m))
        for i in range(0, rows.size, rows_per_block):
            block = rows[i : i + rows_per_block]
            vals = _eval_on_block(g, block[:, None], cols[None, :], (block.size, cols.size))
            if track_max:
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


def _zone_patches(f, xs: np.ndarray, first_mirror: int, invariant: bool, nested=False):
    """Row patches of one node per orbit of the grid ``xs x xs`` (with
    ``nested``, of the nodes the grid adds to its even-index subgrid), each
    weighted by the number of nodes it stands for: the cached index
    geometry of ``_zone_geometry`` bound to ``f`` and ``xs``."""
    bands, listed = _zone_geometry(xs.size, first_mirror, invariant, nested)

    def g(kx, ky):
        return f(xs[kx], xs[ky])

    patches = [(g, rows, weights, cols) for rows, weights, cols in bands]
    if listed is not None:
        kx, ky, weight, starts, row_w, cols = listed

        def listed_g(start, j):
            at = start + j
            return f(xs[kx[at]], xs[ky[at]]) * weight[at]

        patches.append((listed_g, starts, row_w, cols))
    return patches


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _zone_geometry(n: int, first_mirror: int, invariant: bool, nested: bool):
    """Index geometry of ``_zone_patches`` on an axis of n nodes, as
    read-only arrays: the band patches ``(rows, weights, cols)`` and the
    listed nodes ``(kx, ky, weight, starts, row_weights, cols)`` (None for
    the half rule).  It depends on the integrand only through
    ``invariant``, so every integral on a grid level shares one.

    Node k of the axis is minus node ``mirror(k) = (first_mirror - k) % n``
    (0 on the zone axis, n - 1 on the centred odd axis).  The kept rows
    are the rows ``kx <= mirror(kx)`` (``_mirror_fold``): negation maps row
    kx onto its mirror row with the columns reversed, so for an even ``f``
    (the orbits of {e, -1}) every kept row in full is the rule, each row sum
    counting twice and a self-mirror row once.

    For an ``f`` also invariant under s the rule is ``_mirror_fold``'s
    applied to the order of ``dist(k) = min(k, mirror(k))``, which a node
    and its mirror share: s exchanges the nodes with ``dist(ky) <
    dist(kx)`` and those with ``dist(ky) > dist(kx)``, so the full grid sum
    is the sum over kept rows kx (``dist(kx) = kx``) of ``w_row(kx) * (2 *
    sum over dist(ky) < kx + sum over dist(ky) = kx)``, ``w_row`` the row
    weight.  A kept node weighs ``w_row(kx) * (2 if dist(ky) < kx else
    1)``.  These columns are a window that widens with kx, a triangle of
    the grid.  The rows are cut into bands of ``_BAND_ROWS``: the columns
    every row of a band keeps form one patch, whose nodes weigh 4 (2 on a
    self-mirror row), and the rest of the band, a small triangle on the
    fixed lines of s and -s, is listed node by node with its weights and
    evaluated in rows of ``_LIST_COLS`` nodes.  The band patches keep ``f``
    separable (one p_x per row, one p_y per column), as the half rule does,
    so the integrand takes its sines and cosines per row and column; the
    listed nodes take them per node.

    A doubling adds the nodes with kx or ky odd: the odd rows in full and
    the odd columns of the even rows (negation maps odd columns onto odd
    columns)."""
    rows, row_w = _mirror_fold(n, first_mirror)
    cols = np.arange(n)
    if not invariant:
        bands, listed = [(rows, row_w, cols)], []
    else:
        mirror = (first_mirror - cols) % n
        dist = np.minimum(cols, mirror)
        bands, listed = [], []
        for at in np.array_split(np.arange(rows.size), -(-rows.size // _BAND_ROWS)):
            band = rows[at]
            bands.append((band, 2.0 * row_w[at], cols[dist < band[0]]))
            near = cols[(dist >= band[0]) & (dist <= band[-1])]
            kx, ky = np.broadcast_arrays(band[:, None], near[None, :])
            inside = dist[ky] <= kx
            listed.append((kx[inside], ky[inside]))
    patches = []
    for band, weights, window in bands:
        if nested:
            odd = band % 2 == 1
            parts = [(odd, window), (~odd, window[window % 2 == 1])]
        else:
            parts = [(np.ones(band.size, dtype=bool), window)]
        for on, part in parts:
            if on.any() and part.size:
                patches.append(_read_only(band[on], weights[on], part))
    if not listed:
        return tuple(patches), None
    kx, ky = (np.concatenate(k) for k in zip(*listed))
    if nested:
        new = (kx % 2 == 1) | (ky % 2 == 1)
        kx, ky = kx[new], ky[new]
    # relative to 4, so that no listed value exceeds |f|; rows of at most
    # _LIST_COLS nodes, the last filled up with its last node at weight 0
    weight = 0.25 * np.where(kx == mirror[kx], 1.0, 2.0) * np.where(dist[ky] < kx, 2.0, 1.0)
    length = -(-kx.size // -(-kx.size // _LIST_COLS))
    fill = -kx.size % length
    kx, ky = np.pad(kx, (0, fill), "edge"), np.pad(ky, (0, fill), "edge")
    weight = np.pad(weight, (0, fill))
    starts = np.arange(0, kx.size, length)
    listed = (kx, ky, weight, starts, np.full(starts.size, 4.0), np.arange(length))
    return tuple(patches), _read_only(*listed)


def _grid_mean(f, xs: np.ndarray, first_mirror: int, track_max: bool = False):
    """Mean of the even f over the grid ``xs x xs``, from one node per orbit
    (``_zone_patches``).

    Returns the mean, the integrand nodes evaluated, per independent
    integral the largest |f| seen if ``track_max`` (which sets the absolute
    floor below which a vanishing integral counts as converged; 0.0
    otherwise), and whether ``f`` is invariant under s (see ``_probe``)."""
    m, invariant = _probe(f)
    sums, nodes, fmax = _row_sums(_zone_patches(f, xs, first_mirror, invariant), m, track_max)
    return _fsum(sums) / float(xs.size**2), nodes, fmax, invariant


def _doubled_mean(f, mean: np.ndarray, n: int, invariant: bool):
    """Mean of f over the 2n zone grid from its mean over the n grid.

    The n grid is the even-index subgrid of the 2n grid on both axes, so
    only the new nodes are evaluated, one per orbit (``_zone_patches``),
    and their rows are added to ``n^2 mean`` by math.fsum.  Returns the
    mean, the nodes evaluated and the largest |f| seen on them."""
    patches = _zone_patches(f, _zone_axis(2 * n), 0, invariant, nested=True)
    sums, nodes, fmax = _row_sums(patches, mean.size, True)
    total = _fsum([float(n * n) * mean[..., None]] + sums)
    return total / float(4 * n * n), nodes, fmax


def _zone_axis(n: int) -> np.ndarray:
    """The n nodes -pi + 2 pi k / n of the periodic trapezoid on one axis."""
    return -math.pi + (2.0 * math.pi / n) * np.arange(n)


def _as_scalar_like(x: np.ndarray):
    """A Python float or bool for a single integral, the array for a batch."""
    return x.item() if np.ndim(x) == 0 else x


def _freeze(mask: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``new`` where the integral is still open, ``old`` where it froze."""
    open_ = np.reshape(mask, np.shape(mask) + (1,) * (new.ndim - np.ndim(mask)))
    return np.where(open_, new, old)


def integrate_bz(f: Callable, grid: GridSpec) -> IntegrationResult:
    """Periodic trapezoid over the zone with resolution doubling.

    ``f`` must be even under p -> -p (see the module docstring): the base
    level evaluates one node per orbit of its grid, and each doubling one
    per orbit of the nodes it adds (``_doubled_mean``), so no node is
    evaluated twice.  The rule at base_n points per axis is compared
    against 2*base_n (and so on, up to ``max_doublings``), and each
    integral keeps the finer level ``cur``.  Its reported error is the
    error of ``cur``: the difference ``d_k = |cur - prev|`` of successive
    levels, times ``2 r`` where the integral's largest difference contracts
    at the rate ``r = max d_k / max d_{k-1} < 1/2`` (differences that keep
    contracting that fast leave a tail of at most ``d_k r / (1 - r) <= 2 r
    d_k``).  It is ``d_k`` itself on the first doubling, where the
    differences do not halve, where ``max d_{k-1}`` lies at the rounding
    floor, and where the spacing ``2 pi / n`` of ``cur`` exceeds the
    optional attribute ``f.feature_width``, the width of the narrowest
    feature ``f`` is known to have: grids that do not resolve a feature
    can agree by chance (the masked integrand of ``integrate_bz_refined``
    carries its partition ramp's width).  So no integral climbs further
    than it would on ``d_k`` alone.
    Each independent integral stops at the first doubling whose error
    meets ``target_rel_tol`` against its own largest component, or whose
    difference ``max d_k`` lies at the rounding floor; the doubling
    continues while any integral is open.  Failure to meet the tolerance
    is reported through ``converged=False``, never silently.
    """
    n = grid.base_n
    prev, evaluations, fmax, invariant = _grid_mean(f, _zone_axis(n), 0, track_max=True)
    nb = _batch_ndim(prev.ndim)
    value = err = np.zeros(prev.shape)
    done = np.zeros(prev.shape[:nb], dtype=bool)
    d_prev = np.zeros(prev.shape[:nb])  # no rate on the first doubling
    width = getattr(f, "feature_width", math.inf)
    for _ in range(grid.max_doublings):
        cur, nodes, fmax_cur = _doubled_mean(f, prev, n, invariant)
        n *= 2
        fmax = np.maximum(fmax, fmax_cur)
        evaluations += nodes
        diff = FOUR_PI_SQ * np.abs(cur - prev)
        d = _per_integral_max(diff, nb)
        # a genuinely vanishing component can never satisfy a relative test;
        # differences at the round-off floor of the evaluations count as
        # converged (the difference itself: an error extrapolated below the
        # floor from a difference above it is no rounding)
        floor = 1e-13 * FOUR_PI_SQ * fmax
        # the error of cur, not of prev: differences that keep contracting at
        # the observed rate r < 1/2 leave a tail of at most d r / (1 - r) <=
        # 2 r d after cur; a difference that does not halve, that follows one
        # at the rounding floor, or on a grid coarser than f's narrowest
        # feature, is its own estimate
        trusted = (d_prev > floor) & (TWO_PI / n <= width)
        rate = np.divide(d, d_prev, out=np.ones(np.shape(d)), where=trusted)
        factor = np.where(rate < 0.5, 2.0 * rate, 1.0)
        factor = np.reshape(factor, np.shape(factor) + (1,) * (diff.ndim - nb))
        value = _freeze(~done, FOUR_PI_SQ * cur, value)
        err = _freeze(~done, factor * diff, err)
        scale = np.maximum(_per_integral_max(value, nb), 1e-300)
        done = done | (_per_integral_max(err, nb) <= grid.target_rel_tol * scale) | (d <= floor)
        if np.all(done):
            break
        prev, d_prev = cur, d
    return IntegrationResult(
        _as_scalar_like(value), _as_scalar_like(err), evaluations, _as_scalar_like(done)
    )


# ---------------------------------------------------------------------------
# local refinement


def _fold(x):
    """|x| reduced onto [0, pi] by the nearest multiple of 2 pi: the distance
    on the circle, exactly even in x."""
    return np.abs(x - TWO_PI * np.round(x / TWO_PI))


def _torus_dist(px, py, cx: float, cy: float):
    """Distance on the torus, exactly even in the displacement: the distance
    of -p to c is bit for bit the distance of p to -c."""
    return np.hypot(_fold(px - cx), _fold(py - cy))


# sharpness of the partition step: the erf tails at the clamp points are
# erfc(5) ~ 1.5e-12 and the slope jumps there by ~ 8e-11 per unit t, which
# moves smooth integrals by rounding only; a sharper step costs the base
# trapezoid doublings, and at 8 the 1.5e-8 tails make a 1e-13 tolerance
# unreachable
_STEP_SHARPNESS = 10.0
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
        e = np.fromiter(map(math.erf, z.tolist()), dtype=float, count=z.size)
        out[mid] = np.clip((e - _STEP_LO) / (_STEP_HI - _STEP_LO), 0.0, 1.0)
    return out


def _ramp_width(radius: float) -> float:
    """Width of the partition step's erf ramp: its Gaussian slope has the
    standard deviation 1 / (sqrt 2 sharpness) in t, radius / 28 in r."""
    return 0.5 * radius / (math.sqrt(2.0) * _STEP_SHARPNESS)


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


def _polar_disk(f, center, radius: float, r_min: float, level: int, own_mirror: bool,
                sector: int = 0):
    """Row patches of one log-polar refinement disk: rings (rows) times
    ring angles (columns), one patch per radial panel.

    Three radial panels: a Gauss rule in s = log r over [r_min, radius/2]
    where the partition weight is exactly 1 (geometric clustering toward
    the singular core), a Gauss rule in r over the transition annulus
    [radius/2, radius] where the weight falls to 0, and a small Gauss rule
    on the core r < r_min.  Conical zeros have O(1) angular structure at
    every radius, so every ring of a level takes the same nphi =
    ``_ANGULAR_BASE * 2**(level - 1)`` angles (soft-axis minima, whose
    angular structure narrows toward the centre, get a needle disk
    instead).  A level doubles the angles as it doubles the Gauss orders,
    so the ladder's ``2 |hi - lo|`` measures the angular error too.  The
    ring weights carry the largest angular weight times the uniform
    angular weight 2 pi / nphi; the patch integrand scales each angle by
    its own weight relative to the largest, as the needle disk applies its
    column weights.  An ``own_mirror`` disk keeps the first half of every
    ring's angles k (angle 2 pi k / nphi), which with weight 2 is the
    whole disk when the integrand is even about the centre.  A ``sector``
    of 1 (-1) folds the kept angles by the reflection s (-s) that fixes
    the centre, which maps k onto sector * nphi / 4 - k (``_mirror_fold``):
    nphi is a multiple of 64, so the reflection maps ring angles onto ring
    angles, and the two angles on its mirror line count half of the others.
    """
    cx, cy = center
    order = 24 * (2 ** max(0, level))
    xs, ws = _leggauss(order)
    r_log, w_log = _log_rule(r_min, 0.5 * radius, order)
    r_mid = 0.25 * radius * xs + 0.75 * radius
    xc, wc = _leggauss(8)
    r_core = 0.5 * r_min * (xc + 1.0)
    nphi = _ANGULAR_BASE * 2 ** max(0, level - 1)
    period = nphi // 2 if own_mirror else nphi
    if sector:
        k, wk = _mirror_fold(period, sector * nphi // 4 % period)
    else:
        k, wk = np.arange(period), np.ones(period)
    top = wk.max()
    scale = wk / top

    def rings(rr, phi):
        return f(cx + rr * np.cos(phi), cy + rr * np.sin(phi)) * scale

    phi = (2.0 * math.pi / nphi) * k
    dphi = top * 2.0 * math.pi / nphi
    # radial weights with the Jacobian r, and the bump on the annulus.  One
    # patch per panel, not one of every ring: a disk block forms px, py and
    # their sines per node, not per row and column, so a patch of every
    # ring would let _row_sums fill the block budget with those temporaries
    # (the traced peak of a ratio-map column's disks: 6.4 MiB, not 4.7)
    return [
        (rings, r_log, w_log * r_log * dphi, phi),
        (rings, r_mid, ws * 0.25 * radius * r_mid * _bump(r_mid, radius) * dphi, phi),
        (rings, r_core, wc * 0.5 * r_min * r_core * dphi, phi),
    ]


def _needle_disk(f, center, axis: float, radius: float, r_min: float, level: int,
                 own_mirror: bool, sector: int = 0):
    """Row patch of one needle refinement disk: lines of constant u, the
    coordinate along the soft axis, times nodes v across it.

    The integrand has a soft (quadratic-dispersion) axis, and this log-log
    Cartesian grid aligned with it resolves the needle-shaped ridge that
    uniform polar rings cannot.  Both coordinates take one symmetric rule
    on [-radius, radius]: the Gauss-in-log rule over [r_min, radius] per
    sign and a small Gauss rule on the core |t| < r_min.  The v weights and
    the partition bump are applied inside the patch integrand.  An
    ``own_mirror`` disk keeps the second half of the u axis, u > 0 (the
    rule is symmetric with no node at 0), the mirrors of the nodes with u <
    0.  A ``sector`` of 1 (-1) folds by the reflection s (-s) that fixes
    the centre: u is laid along its mirror line, at sector * pi / 4, which
    the reflection leaves while negating v, and the kept half v > 0 gets
    weight 2.  This is the soft axis's frame: the rule depends on its axis
    only modulo pi / 2 (both coordinates take one symmetric rule, and the
    bump is radial), and the Hessian of lam^2 at a point fixed by the
    reflection commutes with it, so the soft axis lies along or across the
    mirror line.
    """
    cx, cy = center
    order = 24 * (2 ** max(0, level))
    t, wt = _log_rule(r_min, radius, order)
    xc, wc = _leggauss(8)
    v = np.concatenate([-t, r_min * xc, t])
    wv = np.concatenate([wt, r_min * wc, wt])
    half = slice(v.size // 2, None)
    u, wu = (v[half], wv[half]) if own_mirror else (v, wv)
    cols, wcols = v, wv
    if sector:
        axis = sector * math.pi / 4
        cols, wcols = v[half], 2.0 * wv[half]
    cu, su = math.cos(axis), math.sin(axis)

    def lines(uu, vv):
        px = cx + uu * cu - vv * su
        py = cy + uu * su + vv * cu
        return f(px, py) * (wcols * _bump(np.hypot(uu, vv), radius))

    return [(lines, u, wu, cols)]


def _disk_integral(f, m, center, radius, r_min, level, axis=None, own_mirror=False, sector=0):
    """Half the integral of f (``m`` values per node, from the caller's
    ``_probe``) over the disk's mirror class (the disk at K for K and -K,
    half the disk on its own mirror), from the nodes its stabiliser leaves
    (see ``_polar_disk`` and ``_needle_disk``), reduced like every other
    node set.  Returns the integral and the nodes evaluated."""
    if axis is None:
        patches = _polar_disk(f, center, radius, r_min, level, own_mirror, sector)
    else:
        patches = _needle_disk(f, center, axis, radius, r_min, level, own_mirror, sector)
    sums, nodes, _ = _row_sums(patches, m, False)
    return _fsum(sums), nodes


def integrate_bz_refined(
    f: Callable,
    disk: tuple[tuple[float, float], float | None],
    r_min: float,
    grid: GridSpec,
    *,
    radius: float,
) -> IntegrationResult:
    """Zone integral with local refinement on exactly the caller's disk.

    ``f`` must be 2 pi-periodic in each coordinate and even under p -> -p
    (see the module docstring): the disk nodes are passed unwrapped, up to
    ``radius`` outside [-pi, pi)^2.  The disk ``(centre, axis)`` stands for
    the one mirror class of the singular points and has the caller's
    ``radius``.  Inside, log-polar rings resolve radii down to ``r_min``; a
    disk with a soft (quadratic) dispersion direction ``axis`` gets an
    axis-aligned log-log grid instead.  The centre fixes the mirror class:
    a zone corner (each coordinate exactly 0 or -pi) is its own mirror and
    integrates half of itself twice; any other centre K stands for K and -K
    (``f`` is even, so one axis serves both) and counts twice.  The mask
    bumps the distance to the nearer of K and -K (one point at a corner),
    even bit for bit, as -p is as far from K as p is from -K, so the base
    rule evaluates at most half the zone.

    When ``f`` is also invariant under s (``_probe``) and the centre is
    fixed by s (cx == cy) or by -s (cx == -cy), the disk and the mask are
    closed under s as well: the base rule evaluates a quarter of the zone,
    and the disk only the sector that its reflection leaves (the corner
    disk a quarter, the disk at K a half; a needle grid is laid along the
    mirror line, see ``_needle_disk``).  An invariant ``f`` whose centre
    neither reflection fixes is refused: its features come at K, s K, -K
    and -s K, and the disk class {K, -K} leaves s K and -s K unrefined,
    unless s K lies within ``r_min`` of K or -K, below the disk's
    resolution (a Dirac point a few ulps off p_x = -p_y, whose coupling a
    few ulps off jx = jy matches f(s p) = f(p) at the probe nodes): the
    disk then takes the half rule, and the base rule the mean of the
    masked f at p and s p.  An ``f`` that is not invariant takes the
    half rule on every disk.

    Nothing is closed, moved or shrunk: ValueError unless ``0 < r_min <
    radius / 2``, the disk overlaps neither its mirror nor its own
    periodic image, and its centre suits the integrand's symmetry.
    """
    (cx, cy), axis = disk
    if not 0 < r_min < 0.5 * radius:
        raise ValueError(f"radius must be positive, r_min in (0, radius / 2): {radius}, {r_min}")
    own_mirror = cx in (0.0, -math.pi) and cy in (0.0, -math.pi)
    # a centre's nearest periodic image is 2 pi away, and -K is nearer to K
    gap = TWO_PI if own_mirror else float(_torus_dist(cx, cy, -cx, -cy))
    if 2.0 * radius > gap:
        raise ValueError(f"a disk of radius {radius} overlaps its mirror or itself")
    # the reflection that fixes the centre: s (1), -s (-1), or neither (0)
    m, invariant = _probe(f)
    sector = (1 if cx == cy else -1 if cx == -cy else 0) if invariant else 0
    unfixed = invariant and not sector
    # s K = (cy, cx) no nearer than r_min to K or -K
    if unfixed and min(_torus_dist(cy, cx, cx, cy), _torus_dist(cy, cx, -cx, -cy)) >= r_min:
        raise ValueError(
            f"neither p_x <-> p_y nor its negation fixes the disk centre {(cx, cy)} "
            "or maps it within r_min of its mirror class, so the disk leaves the "
            "reflected features of an integrand invariant under them unrefined"
        )

    def masked(px, py):
        vals = np.asarray(f(px, py), dtype=float)
        shape = np.broadcast(np.asarray(px), np.asarray(py)).shape
        # w is exactly 0 at a node where a component of both distances
        # (computed as the distances compute it) reaches the radius, so it
        # is formed and applied only at the other nodes
        near = (_fold(px - cx) < radius) & (_fold(py - cy) < radius)
        near |= (_fold(px + cx) < radius) & (_fold(py + cy) < radius)
        at = np.unravel_index(np.flatnonzero(near), shape)
        if at[0].size == 0:
            return vals
        qx, qy = np.broadcast_to(px, shape)[at], np.broadcast_to(py, shape)[at]
        w = _bump(np.minimum(_torus_dist(qx, qy, cx, cy), _torus_dist(qx, qy, -cx, -cy)), radius)
        if not vals.flags.owndata or vals.shape[vals.ndim - len(shape) :] != shape:
            vals = vals * np.ones(shape)  # scaled in place below: own a full copy
        vals[(Ellipsis,) + at] *= 1.0 - w
        return vals

    # an unfixed mask is not closed under s; its mean over p and s p is,
    # with the same sum on the zone grid, which s maps onto itself
    base_f = (lambda px, py: 0.5 * (masked(px, py) + masked(py, px))) if unfixed else masked
    # the narrowest feature of base_f (an attribute of the integrand, as
    # perfbench's tracer wraps integrate_bz as (f, grid) and passes f
    # through unchanged)
    base_f.feature_width = _ramp_width(radius)
    base = integrate_bz(base_f, grid)
    value = np.asarray(base.value, dtype=float)
    err = np.asarray(base.error_estimate, dtype=float)
    nb = _batch_ndim(value.ndim)

    def disk_at(level):
        return _disk_integral(f, m, (cx, cy), radius, r_min, level, axis, own_mirror, sector)

    def scale(hi):
        # of the total, the base and the disk part, which may cancel
        parts = (value + 2.0 * hi, value, 2.0 * hi)
        return np.maximum.reduce([_per_integral_max(x, nb) for x in parts])

    lo, n_lo = disk_at(1)
    hi, n_hi = disk_at(2)
    evaluations = base.evaluations * (2 if unfixed else 1) + n_lo + n_hi
    # what the tolerance leaves after the base error
    share = grid.target_rel_tol * scale(hi) - _per_integral_max(err, nb)
    # a member climbs to the next level only while its disk error misses
    # the share, and keeps the first pair that meets it
    for level in range(3, grid.refine_levels + 2):
        open_ = _per_integral_max(2.0 * np.abs(hi - lo), nb) > share
        if not np.any(open_):
            break
        finer, nodes = disk_at(level)
        evaluations += nodes
        lo, hi = _freeze(open_, hi, lo), _freeze(open_, finer, hi)
    # the base flag judged its error against the masked partial value only;
    # what matters is the combined error against the integral and its parts
    err = err + 2.0 * np.abs(hi - lo)
    converged = _per_integral_max(err, nb) <= grid.target_rel_tol * np.maximum(scale(hi), 1e-300)
    # the disk at -K, or the corner disk's other half, is the mirror image
    # of the one integrated (and a sector stands for its disk)
    value = value + 2.0 * hi
    return IntegrationResult(
        _as_scalar_like(value), _as_scalar_like(err), evaluations, _as_scalar_like(converged)
    )
