"""Bures metric tensor of Kitaev honeycomb thermal states.

The metric lives on the 4-dimensional parameter space (beta, jx, jy, jz),
indexed in that fixed order by ParameterIndex.  All tensors are per site
(intensive): the thermodynamic-limit definition is

    g_part[mu, nu] = (1 / (32 pi^2)) * Integral_BZ integrand_part(mu, nu; p) d^2p

with the closed-form integrands (no prefactor) given by

    classical:     (1 / (cosh(lam beta) + 1)) * K_mu K_nu,
                   K_beta = lam,  K_{J_a} = beta * omega_a / lam
    nonclassical:  tanh^2(lam beta / 2) * theta_a theta_b / lam^4
                   (coupling rows only; eigenvectors do not depend on beta)

where omega_a, theta_a are the coupling responses from `spectrum`
(omega_z = 2 epsilon unifies the z row).  One builder, ``_integrand``,
assembles them for the zone quadrature, the finite sums and the pointwise
``classical_integrand``/``nonclassical_integrand``.  Every integrand is even
under p -> -p (epsilon, lam and omega_a are even; delta and every theta_a
are odd and enter in pairs), which lets the quadrature and the finite sums
evaluate half the zone.  ``tensor_finite`` takes the mean of the same
integrands over the L x L momentum grid p = 2 pi n / L (L odd), the
periodic trapezoid rule on the lattice's own grid, reduced in the
quadrature's fixed row blocks; normalized per site, the momentum sum is
4 pi^2 / (32 pi^2 L^2) = 1 / (8 L^2) times the sum, i.e. the mean over 8.

Oracle and normalization calibration
------------------------------------
``tensor_oracle`` rebuilds the tensor with no reference to the closed forms
and on the full L x L grid, without the evenness the other routes assume:
each momentum hosts a thermal qubit (``mode_density_matrix``) and the bures
module differentiates it, by finite-difference Uhlmann fidelity and by the
analytic eigen-decomposition formula.  Summed per site (N = 2 L^2), the
qubit construction reproduces the nonclassical closed form exactly, while
the classical closed form carries an extra factor 2 relative to the same
sum.  The closed forms (and the decoupled-point values they imply) are
definitional here, so the oracle applies the per-part calibration constants
CLASSICAL_MODE_CALIBRATION = 2 and NONCLASSICAL_MODE_CALIBRATION = 1; the
acceptance suite pins this choice against the closed-form values.

Zero temperature is a distinct limit flag (not beta = inf arithmetic): the
classical part vanishes identically and the nonclassical thermal ratio is 1.
Thermal weights are evaluated in overflow-safe form (1/(cosh x + 1) as
2 e^-x / (1 + e^-x)^2 and the nonclassical ratio as tanh^2(x/2)).

Mode convention: the thermal qubit at momentum p has eigenvalues
exp(+-beta lam / 2) / (2 cosh(beta lam / 2)) and Bloch vector
tanh(beta lam / 2) * (sin theta, cos theta, 0) in the fixed reference basis.
The plane is a fixed convention; only the rotation angle theta matters for
the metric, and the oracle equivalence test certifies the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

from . import bures
from .quadrature import (
    GridSpec,
    QuadratureConvergenceError,
    _BLOCK_VALUES,
    _grid_mean,
    compensated_sum,
    integrate_bz,
    integrate_bz_refined,
)
from .spectrum import (
    Couplings,
    Momentum,
    PhaseRegion,
    SpectralArrays,
    _gap_minimum,
    classify_phase,
    dirac_points,
    fermion_gap,
    spectral_arrays,
)

THIRTY_TWO_PI_SQ = 32.0 * math.pi * math.pi

CLASSICAL_MODE_CALIBRATION = 2.0
NONCLASSICAL_MODE_CALIBRATION = 1.0
# relative agreement the oracle's two classical routes must reach before the
# analytic classical part is returned (see tensor_oracle)
ORACLE_CLASSICAL_RTOL = 1e-3

# gapped couplings closer to the boundary than this get local refinement
# around the dispersion minimum, like gapless couplings do at their zeros
NEAR_CRITICAL_GAP = 0.5
# refinement disks always cover the integrand shoulder, not just a few T
MIN_REFINE_RADIUS = 0.3
# a dispersion minimum whose Hessian eigenvalue ratio is below this has a
# soft axis and gets a needle disk
NEEDLE_RATIO_CUT = 0.05

__all__ = [
    "ParameterIndex",
    "COUPLING_INDICES",
    "CLASSICAL_PAIRS",
    "NONCLASSICAL_PAIRS",
    "ThermoPoint",
    "EvaluationInfo",
    "BuresTensor",
    "classical_integrand",
    "nonclassical_integrand",
    "mode_density_matrix",
    "tensor_finite",
    "tensor_thermodynamic",
    "tensors_thermodynamic",
    "tensor_oracle",
    "nonclassical_corrections",
    "CLASSICAL_MODE_CALIBRATION",
    "NONCLASSICAL_MODE_CALIBRATION",
]


class ParameterIndex(IntEnum):
    """Tensor index order: (BETA, JX, JY, JZ), fixed everywhere."""

    BETA = 0
    JX = 1
    JY = 2
    JZ = 3


COUPLING_INDICES = (ParameterIndex.JX, ParameterIndex.JY, ParameterIndex.JZ)

CLASSICAL_PAIRS: tuple[tuple[ParameterIndex, ParameterIndex], ...] = tuple(
    (ParameterIndex(i), ParameterIndex(j)) for i in range(4) for j in range(i, 4)
)
NONCLASSICAL_PAIRS: tuple[tuple[ParameterIndex, ParameterIndex], ...] = tuple(
    (ParameterIndex(i), ParameterIndex(j)) for i in range(1, 4) for j in range(i, 4)
)


@dataclass(frozen=True)
class ThermoPoint:
    """Couplings plus inverse temperature; T = 0 is an explicit limit flag."""

    couplings: Couplings
    beta: float
    zero_temperature: bool = False

    def __post_init__(self):
        if self.zero_temperature:
            object.__setattr__(self, "beta", math.inf)
            return
        b = float(self.beta)
        if not (math.isfinite(b) and b > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        object.__setattr__(self, "beta", b)

    @classmethod
    def from_temperature(cls, couplings: Couplings, temperature: float) -> "ThermoPoint":
        t = float(temperature)
        if t < 0 or not math.isfinite(t):
            raise ValueError(f"temperature must be finite and >= 0, got {temperature!r}")
        if t == 0.0:
            return cls(couplings, math.inf, zero_temperature=True)
        return cls(couplings, 1.0 / t)

    @property
    def temperature(self) -> float:
        return 0.0 if self.zero_temperature else 1.0 / self.beta


@dataclass(frozen=True)
class EvaluationInfo:
    """How a tensor was produced (method plus free-form diagnostics)."""

    method: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BuresTensor:
    """Per-site 4x4 metric, split into classical and nonclassical parts.

    Rows/columns follow ParameterIndex order.  The nonclassical beta row and
    column are identically zero (mode eigenvectors do not depend on beta).
    """

    classical: np.ndarray
    nonclassical: np.ndarray
    evaluation: EvaluationInfo

    @property
    def total(self) -> np.ndarray:
        return self.classical + self.nonclassical

    def element(self, part: str, mu: ParameterIndex, nu: ParameterIndex) -> float:
        m = {"classical": self.classical, "nonclassical": self.nonclassical,
             "total": self.total}[part]
        return float(m[int(mu), int(nu)])


# ---------------------------------------------------------------------------
# integrands


def _inv_cosh_plus_one(x: np.ndarray) -> np.ndarray:
    """1 / (cosh x + 1) for x >= 0 without forming cosh(x)."""
    e = np.exp(-np.asarray(x, dtype=float))
    return 2.0 * e / (1.0 + e) ** 2


def _omega(fields: SpectralArrays, idx: ParameterIndex) -> np.ndarray:
    if idx is ParameterIndex.JX:
        return fields.omega_x
    if idx is ParameterIndex.JY:
        return fields.omega_y
    if idx is ParameterIndex.JZ:
        return fields.omega_z
    raise ValueError(f"{idx} is not a coupling index")


def _theta_resp(fields: SpectralArrays, idx: ParameterIndex) -> np.ndarray:
    if idx is ParameterIndex.JX:
        return fields.theta_x
    if idx is ParameterIndex.JY:
        return fields.theta_y
    if idx is ParameterIndex.JZ:
        return fields.theta_z
    raise ValueError(f"{idx} is not a coupling index")


def _classical_component(mu, nu, fields, beta, weight):
    """Classical integrand on arrays; `weight` is 1/(cosh(lam beta)+1)."""
    if mu is ParameterIndex.BETA and nu is ParameterIndex.BETA:
        return weight * fields.lam**2
    if mu is ParameterIndex.BETA or nu is ParameterIndex.BETA:
        other = nu if mu is ParameterIndex.BETA else mu
        return beta * weight * _omega(fields, other)
    lam2 = fields.lam**2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (beta * beta) * weight * _omega(fields, mu) * _omega(fields, nu) / lam2
    # at a dispersion zero the omega numerators vanish at least as fast as
    # lam^2, so the limit is bounded; the exact zero is measure zero
    return np.where(lam2 > 0.0, val, 0.0)


def _nonclassical_component(a, b, fields, ratio):
    """Nonclassical integrand on arrays; `ratio` is tanh^2(lam beta / 2)."""
    lam4 = fields.lam**4
    with np.errstate(divide="ignore", invalid="ignore"):
        val = ratio * _theta_resp(fields, a) * _theta_resp(fields, b) / lam4
    return np.where(lam4 > 0.0, val, 0.0)


def _tanh_sq_ratio(tp: ThermoPoint, lam: np.ndarray) -> np.ndarray:
    """Nonclassical thermal kernel tanh^2(beta lam / 2) (1 at T = 0)."""
    if tp.zero_temperature:
        return np.ones_like(lam)
    return np.tanh(0.5 * tp.beta * lam) ** 2


def _minus_sech_sq_ratio(tp: ThermoPoint, lam: np.ndarray) -> np.ndarray:
    """Kernel of the correction g^nc(T) - g^nc(0): tanh^2(x/2) - 1 =
    -sech^2(x/2) = -4 e^-x / (1 + e^-x)^2 with x = beta lam, exactly
    representable where the difference of the two tensors would cancel."""
    e = np.exp(-0.5 * tp.beta * lam)
    sech_half = 2.0 * e / (1.0 + e * e)
    return -(sech_half**2)


def _integrand(points, pairs_c, pairs_nc, nc_kernel):
    """The closed-form integrands of a batch of points sharing one coupling.

    Returns ``f(px, py)`` with leading axes (point, component): the classical
    pairs, then the nonclassical pairs under ``nc_kernel(tp, lam)``.  The
    spectral fields are evaluated once per call and every point's thermal
    kernels applied to them.  A zero-temperature point has zero classical
    components (frozen eigenvalues); its nonclassical kernel is the
    kernel's T = 0 value.
    """
    couplings = points[0].couplings
    n_c = len(pairs_c)

    def f(px, py):
        fields = spectral_arrays(px, py, couplings)
        out = np.empty((len(points), n_c + len(pairs_nc)) + np.shape(fields.lam))
        for k, tp in enumerate(points):
            if tp.zero_temperature:
                out[k, :n_c] = 0.0
            elif pairs_c:
                weight = _inv_cosh_plus_one(tp.beta * fields.lam)
                for i, (mu, nu) in enumerate(pairs_c):
                    out[k, i] = _classical_component(mu, nu, fields, tp.beta, weight)
            if pairs_nc:
                ratio = nc_kernel(tp, fields.lam)
                for i, (a, b) in enumerate(pairs_nc, n_c):
                    out[k, i] = _nonclassical_component(a, b, fields, ratio)
        return out

    return f


def _integrand_at(p: Momentum, tp: ThermoPoint, element) -> float:
    pairs_c, pairs_nc = _select_pairs([element])
    return float(_integrand([tp], pairs_c, pairs_nc, _tanh_sq_ratio)(p.px, p.py)[0, 0])


def classical_integrand(
    mu: ParameterIndex, nu: ParameterIndex, p: Momentum, tp: ThermoPoint
) -> float:
    """Classical closed-form integrand at one momentum, without the
    1/(32 pi^2) prefactor.  Zero temperature returns 0 (frozen eigenvalues)."""
    return _integrand_at(p, tp, ("c", mu, nu))


def nonclassical_integrand(
    a: ParameterIndex, b: ParameterIndex, p: Momentum, tp: ThermoPoint
) -> float:
    """Nonclassical closed-form integrand at one momentum (no prefactor).

    Only coupling indices are admitted; the beta row of the nonclassical
    part vanishes identically.
    """
    return _integrand_at(p, tp, ("nc", a, b))


# ---------------------------------------------------------------------------
# per-mode thermal qubit


def _mode_batch(px, py, lam_vec: np.ndarray, zero_temperature: bool = False) -> np.ndarray:
    """Thermal mode states for arrays of momenta; lam_vec = (beta, jx, jy, jz)."""
    beta = float(lam_vec[0])
    fields = spectral_arrays(px, py, Couplings(*map(float, lam_vec[1:])))
    if zero_temperature:
        r = np.where(fields.lam > 0.0, 1.0, 0.0)
    else:
        r = np.tanh(0.5 * beta * fields.lam)
    phase = np.exp(1j * fields.theta)
    rho = np.empty(np.shape(fields.lam) + (2, 2), dtype=complex)
    rho[..., 0, 0] = 0.5
    rho[..., 1, 1] = 0.5
    rho[..., 0, 1] = -0.5j * r * phase
    rho[..., 1, 0] = np.conj(rho[..., 0, 1])
    return rho


def mode_density_matrix(p: Momentum, tp: ThermoPoint) -> np.ndarray:
    """Thermal 2x2 state of the quasiparticle mode at momentum p.

    Eigenvalues exp(+-beta lam / 2) / (2 cosh(beta lam / 2)); eigenbasis
    rotated from the fixed reference basis by theta in a fixed plane, i.e.
    Bloch vector tanh(beta lam / 2) * (sin theta, cos theta, 0).  At lam = 0
    this is the maximally mixed state; at T = 0 the pure mode ground state.
    """
    lam_vec = np.array(
        [tp.beta if not tp.zero_temperature else 1.0,
         tp.couplings.jx, tp.couplings.jy, tp.couplings.jz]
    )
    return _mode_batch(
        np.asarray(p.px), np.asarray(p.py), lam_vec, zero_temperature=tp.zero_temperature
    )


# ---------------------------------------------------------------------------
# element bookkeeping


def _select_pairs(elements):
    if elements is None:
        return list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS)
    pairs_c: list = []
    pairs_nc: list = []
    for part, mu, nu in elements:
        mu, nu = ParameterIndex(mu), ParameterIndex(nu)
        if mu > nu:
            mu, nu = nu, mu
        if part in ("classical", "c"):
            if (mu, nu) not in pairs_c:
                pairs_c.append((mu, nu))
        elif part in ("nonclassical", "nc"):
            if mu is ParameterIndex.BETA:
                raise ValueError("nonclassical elements exist only for coupling indices")
            if (mu, nu) not in pairs_nc:
                pairs_nc.append((mu, nu))
        else:
            raise ValueError(f"unknown tensor part {part!r}")
    return pairs_c, pairs_nc


def _assemble(pairs, values) -> np.ndarray:
    m = np.zeros((4, 4))
    for (mu, nu), v in zip(pairs, values):
        m[int(mu), int(nu)] = v
        m[int(nu), int(mu)] = v
    return m


# ---------------------------------------------------------------------------
# finite size


def _momentum_axis(L: int) -> np.ndarray:
    half = (L - 1) // 2
    return (2.0 * math.pi / L) * np.arange(-half, half + 1)


def _min_lam(couplings: Couplings, xs: np.ndarray) -> float:
    """Smallest quasiparticle energy on the centred odd grid ``xs x xs``, in
    the quadrature's row blocks (one value per node).  lam is even, so the
    rows up to the middle one (the mirrors of the rest) suffice."""
    half = xs[: xs.size // 2 + 1]
    rows = max(1, _BLOCK_VALUES // xs.size)
    return min(
        float(np.min(spectral_arrays(half[i : i + rows, None], xs[None, :], couplings).lam))
        for i in range(0, half.size, rows)
    )


def tensor_finite(tp: ThermoPoint, L: int, *, elements=None) -> BuresTensor:
    """Per-site tensor from the L x L momentum grid (L odd, >= 3).

    The closed-form integrands summed over p = 2 pi n / L and normalized by
    1 / (8 L^2): the periodic trapezoid rule on the lattice's own grid,
    reduced in the same fixed row blocks as the zone quadrature's base grid,
    so memory grows with L, not L^2.  The integrands are even, so only the
    rows n_x <= 0 are evaluated (see ``quadrature._grid_mean``).  At the
    zero-temperature flag the grid is checked against dispersion zeros (odd
    L avoids them in the gapless interior, but not on special commensurate
    couplings) and the classical part is exactly zero.
    """
    L = int(L)
    if L < 3 or L % 2 == 0:
        raise ValueError(f"L must be odd and >= 3, got {L}")
    pairs_c, pairs_nc = _select_pairs(elements)
    if not pairs_c and not pairs_nc:
        raise ValueError("no tensor elements requested")
    xs = _momentum_axis(L)
    if tp.zero_temperature and pairs_nc:
        scale = max(1.0, 2.0 * sum(abs(j) for j in tp.couplings.as_array()))
        if _min_lam(tp.couplings, xs) < 1e-12 * scale:
            raise ValueError(
                "momentum grid hits a dispersion zero at zero temperature; "
                "the nonclassical sum is undefined there (choose a different L)"
            )
    # node k of the centred axis is minus node L - 1 - k
    mean, _, _ = _grid_mean(_integrand([tp], pairs_c, pairs_nc, _tanh_sq_ratio), xs, L - 1)
    # (1 / (8 L^2)) * sum = mean / 8
    values = list(mean[0] / 8.0)
    info = EvaluationInfo(
        method="finite",
        details={"L": L, "sites": 2 * L * L, "temperature": tp.temperature},
    )
    n_c = len(pairs_c)
    return BuresTensor(
        _assemble(pairs_c, values[:n_c]), _assemble(pairs_nc, values[n_c:]), info
    )


# ---------------------------------------------------------------------------
# thermodynamic limit


def _needle_axis(couplings: Couplings, p: Momentum):
    """Soft-dispersion direction at a dispersion minimum, or None.

    The Hessian of lam^2/2 at the point is
    grad(eps) grad(eps)^T + grad(delta) grad(delta)^T + eps Hess(eps)
    + delta Hess(delta); a strongly rank-deficient Hessian means lam grows
    quadratically along the small eigenvector (a merged Dirac pair on the
    critical boundary, or a near-critical gap minimum), and that direction
    needs anisotropic quadrature refinement.
    """
    jx, jy = couplings.jx, couplings.jy
    cx, sx = math.cos(p.px), math.sin(p.px)
    cy, sy = math.cos(p.py), math.sin(p.py)
    f = spectral_arrays(p.px, p.py, couplings)
    ge = np.array([-2.0 * jx * sx, -2.0 * jy * sy])
    gd = np.array([2.0 * jx * cx, 2.0 * jy * cy])
    hess_e = np.diag([-2.0 * jx * cx, -2.0 * jy * cy])
    hess_d = np.diag([-2.0 * jx * sx, -2.0 * jy * sy])
    h = (
        np.outer(ge, ge)
        + np.outer(gd, gd)
        + float(f.epsilon) * hess_e
        + float(f.delta) * hess_d
    )
    w, v = np.linalg.eigh(0.5 * (h + h.T))
    w = np.abs(w)
    if w[1] <= 0.0 or w[0] > NEEDLE_RATIO_CUT * w[1]:
        return None
    return float(math.atan2(v[1, 0], v[0, 0]))


def _refinement_plan(points: Sequence[ThermoPoint]):
    """One refinement geometry for a batch of points sharing one coupling.

    Returns the singular points, their soft axes, the feature width and the
    disk radius.  Centres and axes depend on the coupling only.  Each point
    has a width ``w`` (its temperature, floored) and a radius
    ``max(8 w, MIN_REFINE_RADIUS)`` that always covers the integrand
    shoulder; the batch takes the smallest width (so ``r_min`` resolves the
    coldest point) and the largest radius.
    """
    couplings = points[0].couplings
    if classify_phase(couplings) is PhaseRegion.GAPLESS_B:
        centers = dirac_points(couplings)
        floor = 1e-6
    else:
        gap = fermion_gap(couplings)
        if gap >= NEAR_CRITICAL_GAP:
            return [], [], 0.0, 0.0
        jx, jy, jz = couplings.jx, couplings.jy, couplings.jz
        # a zero coupling drops a momentum from lam = 2 |jx e^{ipx} + jy e^{ipy}
        # + jz|, so on the boundary its zeros fill a line, not a corner
        lines = (("jx", "p_y", jy * jz), ("jy", "p_x", jx * jz), ("jz", "p_x - p_y", jx * jy))
        for j, (name, line, other) in zip((jx, jy, jz), lines):
            if gap == 0.0 and j == 0.0:
                raise ValueError(
                    f"{name} = 0 on the critical boundary: the dispersion vanishes on the "
                    f"whole line {line} = {'pi' if other > 0 else '0'}, which point "
                    "refinement cannot resolve"
                )
        centers = [_gap_minimum(couplings)]
        floor = max(gap / 8.0, 1e-6)
    axes = [_needle_axis(couplings, c) for c in centers]
    widths = [max(tp.temperature, floor) for tp in points]
    radius = max(8.0 * max(widths), MIN_REFINE_RADIUS)
    return centers, axes, min(widths), radius


def _tolerance_missed(points, raw_errors, result, members=()):
    temps = ", ".join(format(tp.temperature, ".6g") for tp in points)
    return QuadratureConvergenceError(
        f"zone quadrature did not reach the requested tolerance at T = {temps} "
        f"(error estimate {np.max(raw_errors):.3e})",
        result,
        members,
    )


def _zone_tensors(points, grid, pairs_c, pairs_nc, nc_kernel, method):
    """Integrate the requested elements of every point in one quadrature pass.

    The integrand (``_integrand``) has leading axes (point, component), so
    the quadrature judges and freezes every point on its own.  The zero
    classical components of zero-temperature points integrate to exactly 0;
    a batch with no finite temperature integrates no classical components
    unless they are all that was requested.  When points miss the
    tolerance, the QuadratureConvergenceError names them and carries every
    point's outcome in ``members``: the tensor of each converged point, an
    error naming its own temperature for each failed one.
    """
    grid = grid or GridSpec()
    points = list(points)
    if not points:
        raise ValueError("no thermal points given")
    couplings = points[0].couplings
    if any(tp.couplings != couplings for tp in points):
        raise ValueError("a batch of thermal points must share one coupling")
    if not pairs_c and not pairs_nc:
        raise ValueError("no tensor elements requested")
    finite_temperature = any(not tp.zero_temperature for tp in points)
    stack_c = pairs_c if finite_temperature or not pairs_nc else []
    n_c = len(stack_c)
    f = _integrand(points, stack_c, pairs_nc, nc_kernel)

    centers, axes, width, radius = _refinement_plan(points)
    if centers:
        result = integrate_bz_refined(f, centers, width, grid, radius=radius, axes=axes)
    else:
        result = integrate_bz(f, grid)
    shape = (len(points), n_c + len(pairs_nc))
    raw_errors = np.reshape(result.error_estimate, shape)
    converged = np.reshape(result.converged, (len(points),))
    values = np.reshape(result.value, shape) / THIRTY_TWO_PI_SQ
    errors = raw_errors / THIRTY_TWO_PI_SQ
    tensors = []
    for tp, vals, errs in zip(points, values, errors):
        info = EvaluationInfo(
            method=method,
            details={
                "grid": grid,
                "temperature": tp.temperature,
                "refinement_centers": [(c.px, c.py) for c in centers],
                "evaluations": result.evaluations,
                "error_classical": _assemble(stack_c, list(errs[:n_c])),
                "error_nonclassical": _assemble(pairs_nc, list(errs[n_c:])),
            },
        )
        tensors.append(
            BuresTensor(_assemble(stack_c, list(vals[:n_c])),
                        _assemble(pairs_nc, list(vals[n_c:])), info)
        )
    if not np.all(converged):
        members = [
            tensor if ok else _tolerance_missed([tp], err, result)
            for tp, tensor, ok, err in zip(points, tensors, converged, raw_errors)
        ]
        failed = [tp for tp, ok in zip(points, converged) if not ok]
        raise _tolerance_missed(failed, raw_errors[~converged], result, members)
    return tensors


def tensors_thermodynamic(
    points: Sequence[ThermoPoint], grid: GridSpec | None = None, *, elements=None
) -> list[BuresTensor]:
    """Per-site tensors in the thermodynamic limit, one per point, by zone
    quadrature.

    The points must share one coupling (typically a temperature sweep).  All
    requested elements of all points share one quadrature pass: the spectral
    fields, which dominate the cost and do not depend on temperature, are
    evaluated once per node, and one refinement geometry serves the batch
    (see ``_refinement_plan``).  Each point is judged against the grid's
    tolerance on its own and keeps the value of the doubling at which it
    converged; ``evaluations`` in each tensor's details counts the nodes
    actually evaluated, which the batch shares.  Raises
    QuadratureConvergenceError naming the temperatures whose error estimate
    misses the tolerance; its ``members`` hold the tensors of the points
    that converged and, for each failed point, an error naming that point
    alone.
    """
    pairs_c, pairs_nc = _select_pairs(elements)
    if (
        pairs_nc
        and any(tp.zero_temperature for tp in points)
        and not classify_phase(points[0].couplings).is_gapped
    ):
        raise ValueError(
            "the nonclassical metric diverges in the thermodynamic limit at "
            "T = 0 outside the gapped phase"
        )
    return _zone_tensors(points, grid, pairs_c, pairs_nc, _tanh_sq_ratio, "thermodynamic")


def tensor_thermodynamic(
    tp: ThermoPoint, grid: GridSpec | None = None, *, elements=None
) -> BuresTensor:
    """Per-site tensor in the thermodynamic limit by zone quadrature.

    A batch of one of ``tensors_thermodynamic``.  Near dispersion zeros, and
    near the dispersion minimum when the gap is small, the integration is
    locally refined.  Raises QuadratureConvergenceError if the error
    estimate misses the grid's target tolerance.
    """
    return tensors_thermodynamic([tp], grid, elements=elements)[0]


def nonclassical_corrections(
    points: Sequence[ThermoPoint], grid: GridSpec | None = None, *, elements=None
) -> list[BuresTensor]:
    """Finite-temperature corrections g^nc(T) - g^nc(0), one per point.

    The same batched zone integration as ``tensors_thermodynamic`` with the
    nonclassical kernel tanh^2(x/2) - 1 = -sech^2(x/2): a single zone
    integral with an exponentially small but exactly representable
    integrand.  Subtracting two separately computed tensors instead would
    lose the correction to float cancellation as soon as it drops below
    ~1e-11 of g^nc(0), which in the gapped phase happens while the
    temperature is still far from the asymptotic regime.  Each returned
    tensor's nonclassical part holds the (negative) correction; the
    classical part is zero by construction.
    """
    if any(tp.zero_temperature for tp in points):
        raise ValueError("the thermal correction is defined for T > 0")
    pairs_c, pairs_nc = _select_pairs(elements)
    if elements is None:
        pairs_c = []
    if pairs_c:
        raise ValueError("the thermal correction has no classical part")
    if not pairs_nc:
        raise ValueError("no nonclassical elements requested")
    return _zone_tensors(
        points, grid, [], pairs_nc, _minus_sech_sq_ratio, "thermodynamic-correction"
    )


# ---------------------------------------------------------------------------
# the per-mode fidelity oracle


def _entry_sums(g: np.ndarray) -> np.ndarray:
    """Compensated per-entry sum of a stack of (..., 4, 4) metrics."""
    flat = g.reshape(-1, 4, 4)
    out = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            out[i, j] = compensated_sum(np.ascontiguousarray(flat[:, i, j]))
    return out


def _zero_beta_row(m: np.ndarray) -> tuple[np.ndarray, float]:
    residual = float(
        max(np.max(np.abs(m[ParameterIndex.BETA, :])), np.max(np.abs(m[:, ParameterIndex.BETA])))
    )
    out = m.copy()
    out[ParameterIndex.BETA, :] = 0.0
    out[:, ParameterIndex.BETA] = 0.0
    return out, residual


def _mode_bloch(px, py, lam_vec):
    """Stable Bloch data (r, theta, sech(beta lam / 2)) of the mode family."""
    beta = float(lam_vec[0])
    fields = spectral_arrays(px, py, Couplings(*map(float, lam_vec[1:])))
    x = beta * fields.lam
    e = np.exp(-0.5 * x)
    sech_half = 2.0 * e / (1.0 + e * e)
    return np.tanh(0.5 * x), fields.theta, sech_half, x


def _mode_pair_uhlmann(px, py):
    """Exact closed-form mode fidelity, evaluated from Bloch parameters.

    For two single-plane qubit states, F^2 = tr(rho sigma)
    + 2 sqrt(det rho det sigma) = (1 + r_a r_b cos(theta_a - theta_b)) / 2
    + sech(x_a/2) sech(x_b/2) / 2.  Evaluating this from (r, theta) instead
    of matrix entries keeps full relative accuracy at large beta*lam, where
    the matrix representation rounds the state to pure and any downstream
    fidelity loses the exponentially small eigenvalue.  The identity is
    pinned against uhlmann_fidelity on matrices in the test suite.
    """

    def pair(lam_a, lam_b):
        ra, ta, sa, _ = _mode_bloch(px, py, lam_a)
        rb, tb, sb, _ = _mode_bloch(px, py, lam_b)
        f2 = 0.5 * (1.0 + ra * rb * np.cos(ta - tb)) + 0.5 * sa * sb
        return np.sqrt(np.clip(f2, 0.0, 1.0))

    return pair


def _mode_pair_classical(px, py):
    """Bhattacharyya overlap of the mode spectra from stable occupations.

    p_plus = 1 / (1 + e^-x), p_minus = 1 / (1 + e^x) with x = beta lam; the
    rank pairing follows the smooth branch (p_plus >= p_minus always).
    """

    def occupations(x):
        e = np.exp(-x)  # x >= 0, so this cannot overflow
        return 1.0 / (1.0 + e), e / (1.0 + e)

    def pair(lam_a, lam_b):
        *_, xa = _mode_bloch(px, py, lam_a)
        *_, xb = _mode_bloch(px, py, lam_b)
        p_hi, p_lo = occupations(xa)
        q_hi, q_lo = occupations(xb)
        return np.minimum(np.sqrt(p_hi * q_hi) + np.sqrt(p_lo * q_lo), 1.0)

    return pair


def tensor_oracle(tp: ThermoPoint, L: int, step: float = 1e-4) -> BuresTensor:
    """Per-site tensor rebuilt from per-mode density matrices.

    For every momentum of the L x L grid the thermal qubit family
    (beta, jx, jy, jz) -> mode_density_matrix is differentiated twice over:

    * finite-difference Uhlmann fidelity (Richardson-refined central
      differences), plus a finite-difference Bhattacharyya overlap whose
      difference from the total isolates the nonclassical part; both
      fidelities are evaluated in the exact closed form of the mode family
      (see _mode_pair_uhlmann) so deep-gapped modes keep full accuracy;
    * the analytic eigen-decomposition formula (``bures.analytic_metric``).

    Mode sums are normalized per site and scaled by the per-part calibration
    constants (see module docstring).  The returned parts come from the
    analytic route; the finite-difference parts and the worst per-mode
    disagreement between the two routes are stored in evaluation.details.

    The classical part is returned only where the finite-difference route
    confirms it: the largest entrywise difference of the two classical
    parts must stay within ``ORACLE_CLASSICAL_RTOL`` (1e-3) of the largest
    analytic entry, or below the analytic route's rounding floor
    ``(eps / h)^2``.  The analytic route differentiates the mode matrices by
    central differences with step ``h = 1e-6``, so every eigenvalue
    derivative carries a rounding error of about ``eps / h`` (eps the double
    precision epsilon, the matrix entries being at most 1); a classical term
    is quadratic in that derivative, so values below ``(eps / h)^2`` ~ 5e-20
    are that rounding and are not compared.  At low temperature the small
    mode eigenvalue ``~ e^{-beta lam}`` divides a squared derivative error
    of the same order, and the analytic classical part grows far beyond the
    true one; the check then raises ``bures.EigenvalueFloorError`` instead
    of returning it.  The finite-difference route itself knows ``1 - F`` to
    eps, so its parts carry about ``eps / step^2`` (~2e-8 at the default
    step) of rounding: it confirms classical parts down to about 1e-5 per
    site, and the oracle refuses smaller ones above the floor.
    """
    if tp.zero_temperature:
        raise ValueError("the per-mode oracle requires a finite temperature")
    L = int(L)
    if L < 3 or L % 2 == 0:
        raise ValueError(f"L must be odd and >= 3, got {L}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    xs = _momentum_axis(L)
    px = np.repeat(xs, L)
    py = np.tile(xs, L)
    lam0 = np.array([tp.beta, tp.couplings.jx, tp.couplings.jy, tp.couplings.jz])

    def family(lam):
        return _mode_batch(px, py, lam)

    g_total_fd = bures.finite_difference_metric_pairs(
        _mode_pair_uhlmann(px, py), lam0, step
    )
    g_classical_fd = bures.finite_difference_metric_pairs(
        _mode_pair_classical(px, py), lam0, step
    )
    rho0 = family(lam0)
    decomp = bures.spectral_decomposition(rho0, validate=False)
    h = 1e-6
    eye = np.eye(4)
    drho = [(family(lam0 + h * e) - family(lam0 - h * e)) / (2.0 * h) for e in eye]
    md = bures.analytic_metric(decomp, drho, check_inputs=False)

    sites = 2 * L * L
    an_c = (CLASSICAL_MODE_CALIBRATION / sites) * _entry_sums(md.classical)
    an_nc = (NONCLASSICAL_MODE_CALIBRATION / sites) * _entry_sums(md.nonclassical)
    fd_c = (CLASSICAL_MODE_CALIBRATION / sites) * _entry_sums(g_classical_fd)
    fd_nc = (NONCLASSICAL_MODE_CALIBRATION / sites) * _entry_sums(
        g_total_fd - g_classical_fd
    )
    an_nc, residual_an = _zero_beta_row(an_nc)
    fd_nc, residual_fd = _zero_beta_row(fd_nc)
    route_gap = float(np.max(np.abs(an_c - fd_c)))
    classical_scale = float(np.max(np.abs(an_c)))
    rounding_floor = (np.finfo(float).eps / h) ** 2
    if route_gap > max(ORACLE_CLASSICAL_RTOL * classical_scale, rounding_floor):
        raise bures.EigenvalueFloorError(
            f"oracle classical routes disagree by {route_gap:.3e} against a classical "
            f"part of {classical_scale:.3e} at T = {tp.temperature:.6g}: "
            "the exponentially small mode eigenvalues are below what the "
            "finite-difference derivatives resolve"
        )

    per_mode_gap = np.max(np.abs(g_total_fd - md.total))
    mode_scale = max(float(np.max(np.abs(g_total_fd))), 1e-300)
    info = EvaluationInfo(
        method="mode-oracle",
        details={
            "L": L,
            "step": step,
            "fd_classical": fd_c,
            "fd_nonclassical": fd_nc,
            "beta_row_residual": residual_an,
            "fd_beta_row_residual": residual_fd,
            "max_mode_discrepancy": float(per_mode_gap) / mode_scale,
        },
    )
    return BuresTensor(an_c, an_nc, info)
