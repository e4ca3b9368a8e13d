"""Temperature-scaling fits, crossover ratio maps, and contour extraction.

The gapped (quasi-classical) regime follows g ~ T^alpha exp(-gap/T); inside
the gapless region the nonclassical elements diverge as a*ln(1/T)+b; on the
critical lines they follow a power law T^(-1/2).  The fits here are plain
linear least squares in the appropriate coordinates; r_squared and residuals
always refer to the fit's own linearized coordinates.

Fit windows are the caller's choice.  Defaults worth knowing: the gapped
power laws only reach their asymptotic exponents once T is small against
*every* curvature scale of the dispersion (the gap and the transverse
couplings), which can be far below gap/10; the gapless and critical laws are
clean for T in [1e-4, 1e-2].
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import GridSpec, QuadratureConvergenceError
from .spectrum import Couplings
from .thermal_metric import (
    BuresTensor,
    ParameterIndex,
    ThermoPoint,
    tensor_thermodynamic,  # noqa: F401  (perfbench/tracing.py rebinds this name)
    tensors_thermodynamic,
)

__all__ = [
    "GappedClassicalFit",
    "GappedNonclassicalFit",
    "LogDivergenceFit",
    "PowerLawFit",
    "ScalingFitResult",
    "RatioMap",
    "CrossoverContour",
    "fit_gapped_classical",
    "fit_gapped_nonclassical",
    "fit_log_divergence",
    "fit_power_law",
    "figure_of_merit_trajectory",
    "map_axes",
    "ratio_map",
    "crossover_contour",
]


@dataclass(frozen=True)
class GappedClassicalFit:
    """g ~ T^alpha exp(-gap/T): free (alpha, gap) plus, when the gap was
    supplied, the alpha of the gap-constrained fit."""

    alpha: float
    gap: float
    log_prefactor: float
    alpha_constrained: float | None = None
    gap_fixed: float | None = None


@dataclass(frozen=True)
class GappedNonclassicalFit:
    """g(T) - g(0) ~ coefficient * T^exponent * exp(-gap/T), gap fixed."""

    gap: float
    exponent: float
    coefficient: float
    offset: float


@dataclass(frozen=True)
class LogDivergenceFit:
    """g = a * ln(1/T) + b."""

    a: float
    b: float


@dataclass(frozen=True)
class PowerLawFit:
    """g = prefactor * T^exponent."""

    exponent: float
    prefactor: float


@dataclass(frozen=True)
class ScalingFitResult:
    model: GappedClassicalFit | GappedNonclassicalFit | LogDivergenceFit | PowerLawFit
    r_squared: float
    residuals: np.ndarray
    samples: np.ndarray  # (n, 2) columns (T, g)
    warnings: tuple[str, ...] = ()


def _as_samples(samples, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be a sequence of (T, g) pairs")
    if arr.shape[0] < minimum:
        raise ValueError(f"need at least {minimum} samples, got {arr.shape[0]}")
    t = arr[:, 0]
    if np.any(t <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("all samples must be finite with T > 0")
    return t, arr[:, 1]


def _lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("degenerate design matrix (samples too clustered)")
    return coef


def _r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def _prefactor(log_prefactor: float) -> float:
    """e^log_prefactor, refused where it overflows a float."""
    try:
        return math.exp(log_prefactor)
    except OverflowError:
        raise ValueError(
            f"the fitted prefactor e^{log_prefactor:.6g} overflows a float"
        ) from None


def _fit(t, g, y, columns, make_model, warnings=()) -> ScalingFitResult:
    """Least squares of ``y`` on the design ``columns``: the model built from
    the coefficients, with r_squared and residuals in ``y``'s coordinates
    and the (T, g) samples."""
    design = np.stack(columns, axis=1)
    coef = _lstsq(design, y)
    fitted = design @ coef
    return ScalingFitResult(
        model=make_model(coef),
        r_squared=_r_squared(y, fitted),
        residuals=y - fitted,
        samples=np.stack([t, g], axis=1),
        warnings=tuple(warnings),
    )


def fit_gapped_classical(samples, known_gap: float | None = None) -> ScalingFitResult:
    """Fit ln g = c + alpha ln T - gap / T.

    ``alpha`` is the coefficient of ln T and ``gap`` the negative coefficient
    of 1/T.  With ``known_gap`` an additional constrained fit (gap fixed) is
    performed and reported as ``alpha_constrained``.  Samples must be
    positive (pass magnitudes for sign-changing off-diagonal elements);
    a warning is attached if the window extends beyond T = gap/3.
    """
    t, g = _as_samples(samples, 6)
    if np.any(g <= 0):
        raise ValueError("gapped-classical fit requires positive sample values")
    y = np.log(g)
    warnings: list[str] = []
    alpha_con = None
    if known_gap is not None:
        if known_gap <= 0:
            raise ValueError("known_gap must be positive")
        if float(np.max(t)) > known_gap / 3.0:
            warnings.append(
                f"samples extend beyond the deep-gap regime (max T {np.max(t):.3g} "
                f"> gap/3 = {known_gap / 3.0:.3g})"
            )
        design2 = np.stack([np.ones_like(t), np.log(t)], axis=1)
        coef2 = _lstsq(design2, y + known_gap / t)
        alpha_con = float(coef2[1])
    return _fit(
        t, g, y, [np.ones_like(t), np.log(t), 1.0 / t],
        lambda coef: GappedClassicalFit(
            alpha=float(coef[1]),
            gap=float(-coef[2]),
            log_prefactor=float(coef[0]),
            alpha_constrained=alpha_con,
            gap_fixed=known_gap,
        ),
        warnings,
    )


def fit_log_divergence(samples) -> ScalingFitResult:
    """Least squares for g = a * ln(1/T) + b (fit in linear g coordinates)."""
    t, g = _as_samples(samples, 6)
    return _fit(
        t, g, g, [np.ones_like(t), np.log(1.0 / t)],
        lambda coef: LogDivergenceFit(a=float(coef[1]), b=float(coef[0])),
    )


def fit_power_law(samples) -> ScalingFitResult:
    """Regression of ln g on ln T; requires positive samples."""
    t, g = _as_samples(samples, 6)
    if np.any(g <= 0):
        raise ValueError("power-law fit requires positive sample values")
    return _fit(
        t, g, np.log(g), [np.ones_like(t), np.log(t)],
        lambda coef: PowerLawFit(exponent=float(coef[1]), prefactor=_prefactor(coef[0])),
    )


def fit_gapped_nonclassical(
    samples, gap: float, zero_temperature_value: float
) -> ScalingFitResult:
    """Fit the finite-T correction g(T) - g(0) ~ coeff * T^p * exp(-gap/T).

    Samples are (T, g(T) - g(0)) pairs (signs allowed; magnitudes are fit).
    The regression runs on ln|correction| + gap/T against ln T, so only the
    power p and prefactor are free.
    """
    t, d = _as_samples(samples, 6)
    if gap <= 0:
        raise ValueError("gap must be positive")
    if np.any(d == 0):
        raise ValueError("correction samples must be nonzero")
    return _fit(
        t, d, np.log(np.abs(d)) + gap / t, [np.ones_like(t), np.log(t)],
        lambda coef: GappedNonclassicalFit(
            gap=float(gap),
            exponent=float(coef[1]),
            coefficient=_prefactor(coef[0]),
            offset=float(zero_temperature_value),
        ),
    )


# ---------------------------------------------------------------------------
# ratio maps and crossover contours


def figure_of_merit_trajectory(jz: float) -> Couplings:
    """The near-critical cut jx = jy = (1 - jz) / 2 through the phase diagram."""
    return Couplings(0.5 * (1.0 - jz), 0.5 * (1.0 - jz), jz)


@dataclass(frozen=True)
class RatioMap:
    """Grid of g^c_zz / g^nc_zz ratios over (coupling, T).

    ``grid[i, j]`` is the ratio at temperature ``temperatures[i]`` and
    coupling parameter ``jz_values[j]``.  Cells without a ratio hold 0 in
    ``grid`` (never NaN) and are listed with their reason in ``failures``;
    ``valid`` flags the others.  ``unconverged`` holds the failed cells
    whose quadrature missed the tolerance; at the others the ratio is
    undefined (a refused coupling, or a vanished ``nc:jz-jz``).
    """

    jz_values: np.ndarray
    temperatures: np.ndarray
    grid: np.ndarray
    failures: tuple = ()
    unconverged: tuple = ()

    @property
    def valid(self) -> np.ndarray:
        valid = np.ones_like(self.grid, dtype=bool)
        for cell, _ in self.failures:
            valid[cell] = False
        return valid


def map_axes(
    jz_range: tuple[float, float],
    t_range: tuple[float, float],
    resolution: int | tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """The axes of a ratio map: couplings linear over ``jz_range`` and
    temperatures log-spaced over ``t_range``, ``resolution`` points each (or
    a ``(couplings, temperatures)`` pair).  Each axis needs at least 8
    points and an increasing finite range; the temperatures must be
    positive."""
    n_jz, n_t = (resolution, resolution) if isinstance(resolution, int) else resolution
    if n_jz < 8 or n_t < 8:
        raise ValueError("resolution must be at least 8 per axis")
    (j_lo, j_hi), (t_lo, t_hi) = jz_range, t_range
    if not (-math.inf < j_lo < j_hi < math.inf and 0 < t_lo < t_hi < math.inf):
        raise ValueError("ranges must be finite, ordered and, for temperatures, positive")
    return np.linspace(j_lo, j_hi, n_jz), np.geomspace(t_lo, t_hi, n_t)


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the CPU count (1 when that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ratio_map(
    trajectory: Callable[[float], Couplings],
    jz_range: tuple[float, float],
    t_range: tuple[float, float],
    resolution: int | tuple[int, int],
    *,
    grid: GridSpec | None = None,
    threads: int | None = None,
) -> RatioMap:
    """Map of g^c_zz / g^nc_zz along a coupling trajectory.

    The axes come from ``map_axes``; each coupling parameter is mapped
    through ``trajectory``.  Each coupling column is one job:
    a single ``tensors_thermodynamic`` batch over the column's temperatures,
    which shares the spectral fields and one refinement geometry (see
    ``thermal_metric._refinement_plan``).  Columns run concurrently and are
    assembled by index, so the worker count cannot change values.  A
    temperature whose quadrature misses the tolerance marks only its own
    cell invalid, with its own reason; the column's converged cells keep
    their values.  Failures never abort the map.  ``threads`` unset or 0
    means one worker per usable core (``_usable_cores``), at most one per
    column; a negative count is refused.
    """
    if threads is not None and threads < 0:
        raise ValueError(f"threads must be unset or >= 0 (0: automatic), got {threads}")
    jz_values, temperatures = map_axes(jz_range, t_range, resolution)
    n_jz, n_t = len(jz_values), len(temperatures)
    quad = grid or GridSpec(target_rel_tol=1e-4)
    zz = (ParameterIndex.JZ, ParameterIndex.JZ)
    elements = [("c", *zz), ("nc", *zz)]

    def ratio(tensor):
        if isinstance(tensor, Exception):
            return tensor
        nc = tensor.element("nonclassical", *zz)
        if nc == 0.0:
            return ValueError("nonclassical element vanished")
        return tensor.element("classical", *zz) / nc

    def column(j):
        try:
            couplings = trajectory(float(jz_values[j]))
            points = [ThermoPoint.from_temperature(couplings, float(t)) for t in temperatures]
            tensors = tensors_thermodynamic(points, quad, elements=elements)
        except QuadratureConvergenceError as exc:
            tensors = exc.members
        except ValueError as exc:
            tensors = [exc] * n_t
        return [ratio(t) for t in tensors]

    out = np.zeros((n_t, n_jz))
    failures, unconverged = [], []
    workers = threads or min(_usable_cores(), n_jz)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        columns = list(pool.map(column, range(n_jz)))
    for i in range(n_t):
        for j in range(n_jz):
            res = columns[j][i]
            if isinstance(res, Exception):
                failures.append(((i, j), str(res)))
                if isinstance(res, QuadratureConvergenceError):
                    unconverged.append((i, j))
            else:
                out[i, j] = res
    return RatioMap(jz_values, temperatures, out, tuple(failures), tuple(unconverged))


@dataclass(frozen=True)
class CrossoverContour:
    """Level set of a ratio map plus the fitted crossover exponent.

    ``points`` has rows (jz, T).  The exponent comes from regressing ln T on
    ln |jz - jz_critical| over the contour points, pooled over both sides of
    the critical coupling; per-branch exponents expose the asymmetry (None
    when a branch has fewer than 3 points).
    """

    level: float
    points: np.ndarray
    exponent: float | None
    intercept: float | None
    r_squared: float | None
    exponent_below: float | None
    exponent_above: float | None


def _crossing(x0: float, x1: float, s: float, origin: float) -> float:
    """The point the fraction ``s`` of the way from ``x0`` to ``x1``: linear
    in log |x - origin| where both lie on one side of ``origin``, else
    linear in x."""
    d0, d1 = x0 - origin, x1 - origin
    if d0 * d1 > 0.0 and abs(d0) > 1e-300:
        u0 = math.log(abs(d0))
        return origin + math.copysign(math.exp(u0 + s * (math.log(abs(d1)) - u0)), d0)
    return x0 + s * (x1 - x0)


def _edge_crossings(
    rmap: RatioMap, level: float, jz_critical: float
) -> list[tuple[float, float]]:
    """Marching-squares edge crossings of log-ratio, as (jz, T) pairs.

    An edge joins two valid cells next to each other along the temperature
    or the coupling axis.  Where log-ratio crosses the level along it, the
    crossing lies at the fraction of the edge where the linear interpolation
    of log-ratio meets the level, measured (``_crossing``) in log T along
    temperature edges and in log |jz - jz_critical| along coupling edges,
    linear in jz across the critical coupling, so maps that are pure power
    laws of both variables come out exact."""
    g = rmap.grid
    ok = rmap.valid & (g > 0.0)
    logg = np.log(np.where(ok, g, 1.0))
    ll = math.log(level)
    axes, origins = (rmap.temperatures, rmap.jz_values), (0.0, jz_critical)
    pts: list[tuple[float, float]] = []
    # k is the axis an edge runs along: 0 temperature, 1 coupling
    for k, (di, dj) in enumerate(((1, 0), (0, 1))):
        for i in range(g.shape[0] - di):
            for j in range(g.shape[1] - dj):
                a, b = logg[i, j], logg[i + di, j + dj]
                if ok[i, j] and ok[i + di, j + dj] and (a - ll) * (b - ll) < 0.0:
                    at = [axes[0][i], axes[1][j]]
                    n = (i, j)[k]
                    at[k] = _crossing(axes[k][n], axes[k][n + 1], (ll - a) / (b - a), origins[k])
                    pts.append((float(at[1]), float(at[0])))
    return pts


def _branch_fit(pts: np.ndarray, jz_critical: float):
    d = np.abs(pts[:, 0] - jz_critical)
    keep = d > 1e-12
    if int(np.sum(keep)) < 3:
        return None, None, None
    x = np.log(d[keep])
    y = np.log(pts[keep, 1])
    design = np.stack([np.ones_like(x), x], axis=1)
    coef = _lstsq(design, y)
    fitted = design @ coef
    return float(coef[1]), float(coef[0]), _r_squared(y, fitted)


def crossover_contour(
    rmap: RatioMap, level: float, *, jz_critical: float = 0.5
) -> CrossoverContour:
    """Extract the iso-ratio contour and fit T ~ |jz - jz_critical|^eta.

    An empty contour (level outside the map's range) is reported as an empty
    point set with exponent None, not as an error.
    """
    if not level > 0:
        raise ValueError("level must be positive")
    arr = np.array(sorted(_edge_crossings(rmap, level, jz_critical))).reshape(-1, 2)
    (exponent, intercept, r2), (exp_below, _, _), (exp_above, _, _) = (
        _branch_fit(branch, jz_critical)
        for branch in (arr, arr[arr[:, 0] < jz_critical], arr[arr[:, 0] > jz_critical])
    )
    return CrossoverContour(
        level=level,
        points=arr,
        exponent=exponent,
        intercept=intercept,
        r_squared=r2,
        exponent_below=exp_below,
        exponent_above=exp_above,
    )
