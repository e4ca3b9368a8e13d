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
assembles them for the zone quadrature and the finite sums.  Every
integrand is even under p -> -p (epsilon, lam and omega_a are even; delta
and every theta_a are odd and enter in pairs), which lets the quadrature
and the finite sums evaluate half the zone.  On the paper's cut jx = jy
the zone integrand is also made invariant under the reflection s:
(p_x, p_y) -> (p_y, p_x) by averaging each response product with its
image under s (see ``_integrand``), and the quadrature and the finite
sums, which detect that, evaluate a quarter.  ``tensor_finite`` takes the
mean of the same integrands over the L x L momentum grid p = 2 pi n / L
(L odd), the periodic trapezoid rule on the lattice's own grid, reduced in
the quadrature's fixed row blocks; normalized per site, the momentum sum
is 4 pi^2 / (32 pi^2 L^2) = 1 / (8 L^2) times the sum, i.e. the mean over 8.

Full tensors: H is linear in J, so the Gibbs state depends on beta J alone,
and the metric has two exact null vectors, g^c (-beta, J) = 0 and g^nc_JJ J
= 0.  Both hold pointwise in the integrands (sum_a J_a omega_a = lam^2 and
sum_a J_a theta_a = 0), so every linear rule keeps them.  A full request
(``elements=None``) of the quadrature or the finite sums therefore
integrates 9 entries, the classical coupling block and the nonclassical
2 x 2 block without the index of the largest |J_c|, and derives the other 7
from the null vectors (``_derive_full``).  On the cut it integrates one
entry of each pair that s exchanges, 6 at c = z, and writes each at its
image as well.  A request for named elements integrates exactly those.
``tensor_oracle``, the independent check, computes all 16.

Oracle and normalization calibration
------------------------------------
``tensor_oracle`` rebuilds the tensor with no reference to the closed forms
and on the full L x L grid, without the symmetries the other routes assume:
each momentum hosts a thermal qubit (``_mode_matrix``) and the bures
module differentiates it, by finite-difference fidelities and by the
analytic eigen-decomposition formula.  Summed per site (N = 2 L^2), the
qubit construction reproduces the nonclassical closed form exactly.  Its
classical part is the Gibbs state's per site (independent occupations, as
for the qubits), which the classical closed form counts per unit cell of 2
sites: the many-body check (tests/test_many_body.py) finds it half the
closed form's.  So CLASSICAL_MODE_CALIBRATION = 2, by which the oracle
scales its classical part, is derived, not chosen: the sites per unit
cell.  Whether the closed forms should count per site is still open.

Zero temperature is a distinct limit flag (not beta = inf arithmetic): the
classical part vanishes identically and the nonclassical thermal ratio is 1.
Thermal weights are evaluated in overflow-safe form (1/(cosh x + 1) as
2 e^-x / (1 + e^-x)^2 and the nonclassical ratio as tanh^2(x/2)).

Mode convention: the thermal qubit at momentum p has eigenvalues
exp(+-beta lam / 2) / (2 cosh(beta lam / 2)) and Bloch vector
tanh(beta lam / 2) * (sin theta, cos theta, 0) in the fixed reference basis
(``_mode_bloch`` gives r and theta, ``_mode_matrix`` builds the state).
The plane is a fixed convention; only the rotation angle theta matters for
the metric, and the oracle equivalence test certifies the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Sequence

import numpy as np

from . import bures
from .quadrature import (
    GridSpec,
    QuadratureConvergenceError,
    _BLOCK_VALUES,
    _grid_mean,
    _torus_dist,
    compensated_sum,
    integrate_bz,
    integrate_bz_refined,
)
from .spectrum import (
    Couplings,
    Momentum,
    PhaseRegion,
    _gap_minimum,
    classify_phase,
    dirac_points,
    fermion_gap,
    mode_angle,
    spectral_arrays,
)

THIRTY_TWO_PI_SQ = 32.0 * math.pi * math.pi

CLASSICAL_MODE_CALIBRATION = 2.0
# finite-difference step of the oracle's fidelity pass (see tensor_oracle)
ORACLE_STEP = 1e-4
# relative agreement the oracle's two classical routes must reach before the
# analytic classical part is returned (see tensor_oracle)
ORACLE_CLASSICAL_RTOL = 1e-3

# gapped couplings closer to the boundary than this get local refinement
# around the dispersion minimum, like gapless couplings do at their zeros
NEAR_CRITICAL_GAP = 0.5
# a dispersion minimum whose Hessian eigenvalue ratio is below this has a
# soft axis and gets a needle disk
NEEDLE_RATIO_CUT = 0.05
# the largest beta whose square is finite
_BETA_MAX = math.sqrt(np.finfo(float).max)

__all__ = [
    "ParameterIndex",
    "CLASSICAL_PAIRS",
    "NONCLASSICAL_PAIRS",
    "ThermoPoint",
    "EvaluationInfo",
    "BuresTensor",
    "tensor_finite",
    "tensor_thermodynamic",
    "tensors_thermodynamic",
    "tensor_oracle",
    "nonclassical_corrections",
    "CLASSICAL_MODE_CALIBRATION",
]


class ParameterIndex(IntEnum):
    """Tensor index order: (BETA, JX, JY, JZ), fixed everywhere."""

    BETA = 0
    JX = 1
    JY = 2
    JZ = 3


CLASSICAL_PAIRS: tuple[tuple[ParameterIndex, ParameterIndex], ...] = tuple(
    (ParameterIndex(i), ParameterIndex(j)) for i in range(4) for j in range(i, 4)
)
NONCLASSICAL_PAIRS: tuple[tuple[ParameterIndex, ParameterIndex], ...] = tuple(
    (ParameterIndex(i), ParameterIndex(j)) for i in range(1, 4) for j in range(i, 4)
)


@dataclass(frozen=True)
class ThermoPoint:
    """Couplings plus inverse temperature; T = 0 is an explicit limit flag.

    A finite beta is refused above sqrt(DBL_MAX), where beta^2 overflows."""

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
        if b > _BETA_MAX:
            # the classical kernel forms beta^2, which would overflow
            raise ValueError(
                f"beta must be at most sqrt(DBL_MAX) = {_BETA_MAX:.6g} "
                f"(T >= {1.0 / _BETA_MAX:.6g}), got {self.beta!r}"
            )
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
    """How a tensor was produced: free-form diagnostics."""

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
        """One entry of the part named ``part`` (classical, nonclassical or
        total); KeyError for any other name."""
        if part not in ("classical", "nonclassical", "total"):
            raise KeyError(part)
        return getattr(self, part).item(mu, nu)


# ---------------------------------------------------------------------------
# integrands


def _inv_cosh_plus_one(beta, lam: np.ndarray) -> np.ndarray:
    """1 / (cosh x + 1) at x = beta lam >= 0 without forming cosh(x)
    (``beta`` a float or a column, as in ``_tanh_sq_ratio``)."""
    e = np.exp(-beta * lam)
    d = 1.0 + e
    e *= 2.0
    e /= d * d
    return e


def _tanh_sq_ratio(beta, lam: np.ndarray) -> np.ndarray:
    """Nonclassical thermal kernel tanh^2(beta lam / 2), ``beta`` a float
    or a column along a leading point axis; 1 where beta is inf (T = 0)."""
    cold = np.isinf(beta)
    if not cold.any():
        return np.tanh(0.5 * beta * lam) ** 2
    return np.where(cold, 1.0, np.tanh(0.5 * np.where(cold, 0.0, beta) * lam) ** 2)


def _minus_sech_sq_ratio(beta, lam: np.ndarray) -> np.ndarray:
    """Kernel of the correction g^nc(T) - g^nc(0): tanh^2(x/2) - 1 =
    -sech^2(x/2) = -4 e^-x / (1 + e^-x)^2 with x = beta lam (``beta`` as
    in ``_tanh_sq_ratio``), exactly representable where the difference of
    the two tensors would cancel."""
    e = np.exp(-0.5 * beta * lam)
    sech_half = 2.0 * e / (1.0 + e * e)
    return -(sech_half**2)


# 1/lam^2 is taken only where lam^2 exceeds this floor, which keeps its
# square finite; a subnormal lam^2 would overflow it (and inf * 0 is NaN)
_LAM2_FLOOR = 1.0 / math.sqrt(np.finfo(float).max)
# kernel values formed per group of points (see _components): 2**15
# doubles, 256 KB, fit a core's L2 cache (ratio-map gained less at 8192
# and 16000), and a block larger than that goes a point at a time, so its
# temporaries stay those of one point
_KERNEL_SLAB = 2**15


# the spectral response of each coupling index
_OMEGA = {ParameterIndex.JX: "omega_x", ParameterIndex.JY: "omega_y", ParameterIndex.JZ: "omega_z"}
_THETA = {ParameterIndex.JX: "theta_x", ParameterIndex.JY: "theta_y", ParameterIndex.JZ: "theta_z"}
# on the cut jx == jy, s: (p_x, p_y) -> (p_y, p_x) exchanges these responses
_SWAP_XY = {ParameterIndex.JX: ParameterIndex.JY, ParameterIndex.JY: ParameterIndex.JX}


def _components(fields, points, pairs_c, pairs_nc, nc_kernel, cut):
    """Every point's thermal kernels applied to one evaluation of the
    spectral fields: leading axes (point, component), the classical pairs,
    then the nonclassical pairs under ``nc_kernel(beta, lam)``.  A
    zero-temperature point has zero classical components (frozen
    eigenvalues); its nonclassical kernel is the kernel's value at beta =
    inf.

    Each component is one prefactor times one response product, and only
    the responses the pairs name (and, on the cut, their images) are read,
    so only they are formed.  The products (lam^2, omega_a, omega_mu
    omega_nu, theta_a theta_b) do not depend on temperature and are formed
    once, first, in the first point's slots, so a pair's value is the same
    bit for bit when its responses trade places.  On the cut jx == jy
    (``cut``) each product is the mean of itself and its image under s (see
    ``_integrand``), formed once per node before any kernel multiplies it.
    The prefactors of one kind, w = 1/(cosh(lam beta)+1), beta w, beta^2 w
    / lam^2 and nc_kernel / lam^4, are formed for a group of points at
    once, along a leading point axis against the nodes, from one reciprocal
    of lam^2 per node.  That reciprocal is 0 where lam^2 <= ``_LAM2_FLOOR``,
    the exact dispersion zero included (measure zero; the numerators vanish
    at least as fast as lam^2 there).  A group holds at most
    ``_KERNEL_SLAB`` values per prefactor (and at least one point), so a
    small block takes the whole batch in one pass and a large one a point
    at a time; each value is the same float operation on the same operands
    whatever the grouping, so a member of a batch is bit for bit the point
    evaluated alone.  The groups run last to first, and the first group
    writes the first point last: its slots hold the products until then."""
    beta_idx, lam, n_c = ParameterIndex.BETA, fields.lam, len(pairs_c)
    image = _SWAP_XY if cut else {}
    read_c, read_nc = ({k for q in pairs for i in q for k in (i, image.get(i, i))}
                       for pairs in (pairs_c, pairs_nc))
    omega = {k: getattr(fields, _OMEGA[k]) for k in read_c - {beta_idx}}
    theta = {k: getattr(fields, _THETA[k]) for k in read_nc}
    # the integrands pass the only reference: the sines, cosines and unread
    # fields are freed here, before the block-sized products are allocated
    del fields
    out = np.empty((len(points), n_c + len(pairs_nc)) + np.shape(lam))

    def product(resp, ks, i):
        # the responses ks multiplied in the first point's slot i (a lone
        # one is read as it is); on the cut, averaged with its image under s
        slot, images = out[0, i, ...], [image.get(k, k) for k in ks]
        if sorted(images) == sorted(ks):
            return resp[ks[0]] if len(ks) == 1 else np.multiply(resp[ks[0]], resp[ks[1]], out=slot)
        if len(ks) == 1:
            np.add(resp[ks[0]], resp[images[0]], out=slot)
        else:
            np.multiply(resp[ks[0]], resp[ks[1]], out=slot)
            slot += resp[images[0]] * resp[images[1]]
        slot *= 0.5
        return slot

    lam2 = lam * lam
    inv2 = np.divide(1.0, lam2, out=np.zeros_like(lam2), where=lam2 > _LAM2_FLOOR)
    terms = []
    for i, (mu, nu) in enumerate(pairs_c):
        if mu is beta_idx and nu is beta_idx:
            terms.append(("w", lam2))
        elif beta_idx in (mu, nu):
            terms.append(("bw", product(omega, [nu if mu is beta_idx else mu], i)))
        else:
            terms.append(("bbw", product(omega, [mu, nu], i)))
    for i, (a, b) in enumerate(pairs_nc, n_c):
        terms.append(("nc", product(theta, [a, b], i)))
    kinds = {kind for kind, _ in terms}
    del lam2
    if pairs_nc:
        # in place unless the beta^2 w / lam^2 prefactor still needs 1/lam^2
        inv4 = inv2 * inv2 if "bbw" in kinds else np.square(inv2, out=inv2)
    # one beta per point, inf at T = 0, where the classical kernels are
    # formed at beta = 0 and then replaced by zeros; a group's betas form a
    # column along a leading point axis, and a lone point's stays a float,
    # so a point that goes alone makes the calls a per-point loop made
    column = (-1,) + (1,) * np.ndim(lam)

    def betas(lo, hi, cold_beta=math.inf):
        values = [cold_beta if tp.zero_temperature else tp.beta for tp in points[lo:hi]]
        return values[0] if len(values) == 1 else np.reshape(values, column)

    step = max(1, _KERNEL_SLAB // max(np.size(lam), 1))
    for lo in reversed(range(0, len(points), step)):
        hi, factor = min(lo + step, len(points)), {}
        lone = hi - lo == 1
        if n_c:
            beta = betas(lo, hi, cold_beta=0.0)
            factor["w"] = w = _inv_cosh_plus_one(beta, lam)
            if "bw" in kinds:
                factor["bw"] = beta * w
            if "bbw" in kinds:
                # scaled in place unless the beta-beta component needs w
                bbw = w.copy() if "w" in kinds else w
                bbw *= beta * beta
                bbw *= inv2
                factor["bbw"] = bbw
        if pairs_nc:
            factor["nc"] = nc_kernel(betas(lo, hi), lam)
            factor["nc"] *= inv4
        for i, (kind, product) in enumerate(terms):
            if lone:
                np.multiply(factor[kind], product, out=out[lo, i, ...])
            else:
                # the first point's slots hold the products: written last
                np.multiply(factor[kind][1:], product, out=out[lo + 1 : hi, i])
                np.multiply(factor[kind][0], product, out=out[lo, i, ...])
    cold = [tp.zero_temperature for tp in points]
    if n_c and any(cold):
        out[cold, :n_c] = 0.0
    return out


def _integrand(points, pairs_c, pairs_nc, nc_kernel):
    """The zone integrand of a batch of points sharing one coupling.

    Returns ``f(px, py)`` with leading axes (point, component): the
    classical pairs, then the nonclassical pairs (see ``_components``).
    The spectral fields are evaluated once per call.

    On the cut jx == jy (bit for bit) the reflection s: (p_x, p_y) -> (p_y,
    p_x) maps every field onto itself with the x and y responses exchanged,
    so f(s p) is f(p) with the pairs that s exchanges exchanged: c bx/by,
    xx/yy and xz/yz, nc xx/yy and xz/yz.  There ``_components`` averages
    each response product with its image under s, so every component is
    the mean of its pair, and the same bit for bit at p and s p (a sum or
    product of two responses does not depend on their order).  Every
    component is then invariant under s, which lets the quadrature
    evaluate one node per orbit of {e, -1, s, -s}, and integrates to the
    same value, because s preserves the zone and its grids.
    """
    couplings = points[0].couplings
    cut = couplings.jx == couplings.jy
    return lambda px, py: _components(
        spectral_arrays(px, py, couplings), points, pairs_c, pairs_nc, nc_kernel, cut
    )


# ---------------------------------------------------------------------------
# per-mode thermal qubit


def _mode_bloch(px, py, lam_vec):
    """Stable Bloch data (r, theta, sech(beta lam / 2), beta lam) of the mode
    family at lam_vec = (beta, jx, jy, jz), for arrays of momenta."""
    beta = float(lam_vec[0])
    fields = spectral_arrays(px, py, Couplings(*map(float, lam_vec[1:])))
    x = beta * fields.lam
    e = np.exp(-0.5 * x)
    sech_half = 2.0 * e / (1.0 + e * e)
    return np.tanh(0.5 * x), mode_angle(fields), sech_half, x


def _mode_matrix(r, theta) -> np.ndarray:
    """Mode states with Bloch vector r * (sin theta, cos theta, 0)."""
    phase = np.exp(1j * theta)
    rho = np.empty(np.shape(r) + (2, 2), dtype=complex)
    rho[..., 0, 0] = 0.5
    rho[..., 1, 1] = 0.5
    rho[..., 0, 1] = -0.5j * r * phase
    rho[..., 1, 0] = np.conj(rho[..., 0, 1])
    return rho


# ---------------------------------------------------------------------------
# element bookkeeping


def _select_pairs(elements):
    """The classical and nonclassical pairs a request names (all for
    ``None``), each once; ValueError for an unknown part or an empty request."""
    if elements is None:
        return list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS)
    pairs_c: list = []
    pairs_nc: list = []
    for part, mu, nu in elements:
        mu, nu = ParameterIndex(mu), ParameterIndex(nu)
        if mu > nu:
            mu, nu = nu, mu
        if part == "c":
            if (mu, nu) not in pairs_c:
                pairs_c.append((mu, nu))
        elif part == "nc":
            if mu is ParameterIndex.BETA:
                raise ValueError("nonclassical elements exist only for coupling indices")
            if (mu, nu) not in pairs_nc:
                pairs_nc.append((mu, nu))
        else:
            raise ValueError(f"unknown tensor part {part!r} (expected c or nc)")
    if not pairs_c and not pairs_nc:
        raise ValueError("no tensor elements requested")
    return pairs_c, pairs_nc


def _parts(pairs_c, pairs_nc, row, cut=False) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric classical and nonclassical 4x4 parts of ``row``, which
    stacks the entries of ``pairs_c`` and then those of ``pairs_nc``, each
    written at its image under s as well when ``cut`` (see ``_integrand``)."""
    parts = (np.zeros((4, 4)), np.zeros((4, 4)))
    for k, ((mu, nu), v) in enumerate(zip(pairs_c + pairs_nc, row)):
        m = parts[0] if k < len(pairs_c) else parts[1]
        m[mu, nu] = m[nu, mu] = v
        if cut:
            mu, nu = _SWAP_XY.get(mu, mu), _SWAP_XY.get(nu, nu)
            m[mu, nu] = m[nu, mu] = v
    return parts


_COUPLING_INDICES = (ParameterIndex.JX, ParameterIndex.JY, ParameterIndex.JZ)


def _eliminated(couplings: Couplings) -> ParameterIndex:
    """The coupling index c whose nonclassical row a full tensor derives:
    the largest |J_c|, ties broken toward z and then y."""
    j = couplings.as_array()
    return max(reversed(_COUPLING_INDICES), key=lambda i: abs(j[i - 1]))


def _integrated_pairs(couplings: Couplings, pairs_c, pairs_nc):
    """The 9 of a full request's 16 pairs that are integrated: the classical
    coupling block and the nonclassical block without ``_eliminated``.  On
    the cut jx == jy a pair stands for its image under s as well (``_parts``
    writes it there): the pairs with y but not x are dropped, which leaves
    4 + 2 at c = z and 4 + 3 at c = y."""
    c, cut = _eliminated(couplings), couplings.jx == couplings.jy

    def image(q):
        return cut and ParameterIndex.JY in q and ParameterIndex.JX not in q

    return (
        [q for q in pairs_c if ParameterIndex.BETA not in q and not image(q)],
        [q for q in pairs_nc if c not in q and not image(q)],
    )


def _null_row(m: np.ndarray, r: int, others, coeffs):
    """Row and column ``r`` of the symmetric ``m`` from the other rows:
    m[i, r] = sum_k coeffs_k m[i, k] over ``others`` for each other i, then
    m[r, r] from the new row the same way."""
    for i in others:
        m[i, r] = m[r, i] = sum(a * m[i, k] for k, a in zip(others, coeffs))
    m[r, r] = sum(a * m[r, k] for k, a in zip(others, coeffs))


def _derive_full(tp: ThermoPoint, classical, nonclassical, errors=None):
    """Complete a full tensor from its 9 integrated entries, in place.

    H is linear in J, so the Gibbs state depends on beta J alone, and both
    null vectors hold pointwise in the integrands (sum_a J_a omega_a = lam^2
    and sum_a J_a theta_a = 0), hence in every linear rule:

        g^c (-beta, J) = 0:  g_{beta,i} = sum_k J_k g_{ik} / beta
        g^nc_JJ J = 0:       g_{ic} = -sum_{k != c} J_k g_{ik} / J_c

    each followed by the diagonal entry from the new row, with c =
    ``_eliminated``, so every |J_k / J_c| <= 1.  A zero-temperature point
    keeps its identically zero classical part.  ``errors``, the pair of
    error matrices, get the same rows with |J| and the computed errors.
    """
    j = tp.couplings.as_array()
    c = _eliminated(tp.couplings)
    rest = [i for i in _COUPLING_INDICES if i != c]
    # all couplings zero: every theta_a vanishes, and so does the row
    nc_coeffs = [-j[k - 1] / j[c - 1] if j[c - 1] else 0.0 for k in rest]
    err_c, err_nc = (None, None) if errors is None else errors
    rows = [(nonclassical, err_nc, c, rest, nc_coeffs)]
    if not tp.zero_temperature:
        rows.append((classical, err_c, ParameterIndex.BETA, _COUPLING_INDICES, j / tp.beta))
    for m, err, r, others, coeffs in rows:
        _null_row(m, r, others, coeffs)
        if err is not None:
            _null_row(err, r, others, np.abs(coeffs))


# ---------------------------------------------------------------------------
# finite size


def _grid_size(L) -> int:
    """``L`` as an int, refused unless it is an odd integer >= 3 (a float
    with a fraction or a string is not truncated or parsed)."""
    try:
        n = int(L)
    except (OverflowError, TypeError):  # inf, None: refused below
        n = 0
    if n != L or n < 3 or n % 2 == 0:
        raise ValueError(f"L must be an odd integer >= 3, got {L!r}")
    return n


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
    rows n_x <= 0 are evaluated, and on the cut jx = jy only a triangle of
    them (see ``quadrature._grid_mean``).  A full tensor sums 9 entries
    (fewer on the cut) and derives 7, as ``tensors_thermodynamic`` does.
    At the zero-temperature flag the grid is checked against dispersion
    zeros (odd L avoids them in the gapless interior, but not on special
    commensurate couplings) and the classical part is exactly zero.
    """
    L = _grid_size(L)
    pairs_c, pairs_nc = _select_pairs(elements)
    cut = elements is None and tp.couplings.jx == tp.couplings.jy
    if elements is None:
        pairs_c, pairs_nc = _integrated_pairs(tp.couplings, pairs_c, pairs_nc)
    xs = _momentum_axis(L)
    if tp.zero_temperature and pairs_nc:
        scale = max(1.0, 2.0 * sum(abs(j) for j in tp.couplings.as_array()))
        if _min_lam(tp.couplings, xs) < 1e-12 * scale:
            raise ValueError(
                "momentum grid hits a dispersion zero at zero temperature; "
                "the nonclassical sum is undefined there (choose a different L)"
            )
    # node k of the centred axis is minus node L - 1 - k
    mean = _grid_mean(_integrand([tp], pairs_c, pairs_nc, _tanh_sq_ratio), xs, L - 1)[0]
    info = EvaluationInfo({"L": L, "sites": 2 * L * L, "temperature": tp.temperature})
    # (1 / (8 L^2)) * sum = mean / 8
    tensor = BuresTensor(*_parts(pairs_c, pairs_nc, mean[0] / 8.0, cut), info)
    if elements is None:
        _derive_full(tp, tensor.classical, tensor.nonclassical)
    return tensor


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
    """One refinement geometry for a batch of points sharing one coupling,
    decided here alone: ``integrate_bz_refined`` takes it as it is.

    Returns ``(disk, radius, r_min)``, with ``disk`` None for couplings
    gapped beyond ``NEAR_CRITICAL_GAP``.  The dispersion zeros form one
    mirror class, so ``disk`` is one ``(centre, axis)``, from the coupling
    alone: the Dirac point ``dirac_points(c)[0]``, which stands for +-K, or
    the exact gap corner, its own mirror, with its soft axis.  The radius
    is the largest disk the geometry allows: pi/2 at a gap corner, and
    0.499 of the distance of +-K for a Dirac pair.  The base trapezoid must
    resolve the partition step, whose erf ramp is about radius / 28 wide,
    so the wider the disk, the fewer doublings; a disk's nodes per level do
    not depend on its radius, as its Gauss orders and ring angles are
    fixed.  Each point has a width ``w``: its temperature, floored at
    ``gap / 8`` for a gapped coupling, and 1e-6 at T = 0 without a gap;
    ``r_min = min(min w / 100, radius / 64)`` resolves the coldest point.
    """
    couplings = points[0].couplings
    radius = 0.5 * math.pi
    if classify_phase(couplings) is PhaseRegion.GAPLESS_B:
        zero = dirac_points(couplings)[0]
        radius = min(radius, 0.499 * float(_torus_dist(zero.px, zero.py, -zero.px, -zero.py)))
        floor = 0.0
    else:
        gap = fermion_gap(couplings)
        if gap >= NEAR_CRITICAL_GAP:
            return None, 0.0, 0.0
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
        zero = _gap_minimum(couplings)
        floor = gap / 8.0
    # 1e-6 only where nothing else sets a width: T = 0 without a gap
    widths = [max(tp.temperature, floor) or 1e-6 for tp in points]
    r_min = min(min(widths) / 100.0, radius / 64.0)
    return ((zero.px, zero.py), _needle_axis(couplings, zero)), radius, r_min


def _tolerance_missed(points, worst, result, members=()):
    temps = ", ".join(format(tp.temperature, ".6g") for tp in points)
    return QuadratureConvergenceError(
        f"zone quadrature did not reach the requested tolerance at T = {temps} "
        f"(error estimate {np.max(worst):.3e})",
        result,
        members,
    )


def _zone_tensors(points, grid, pairs_c, pairs_nc, nc_kernel, *, full=False):
    """Integrate the requested elements of every point in one quadrature pass.

    The integrand (``_integrand``) has leading axes (point, component), so
    the quadrature judges and freezes every point on its own.  The zero
    classical components of zero-temperature points integrate to exactly 0;
    a batch with no finite temperature integrates no classical components
    unless they are all that was requested.  A ``full`` request integrates
    only ``_integrated_pairs`` and completes each point by ``_derive_full``;
    its flag is then judged again over the whole tensor, as the quadrature
    judges a stack of components: the largest error against the tolerance
    times the largest entry.  When points miss the
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
    cut = full and couplings.jx == couplings.jy
    if full:
        pairs_c, pairs_nc = _integrated_pairs(couplings, pairs_c, pairs_nc)
    finite_temperature = any(not tp.zero_temperature for tp in points)
    stack_c = pairs_c if finite_temperature or not pairs_nc else []
    f = _integrand(points, stack_c, pairs_nc, nc_kernel)

    disk, radius, r_min = _refinement_plan(points)
    if disk is None:
        result = integrate_bz(f, grid)
    else:
        result = integrate_bz_refined(f, disk, r_min, grid, radius=radius)
    shape = (len(points), len(stack_c) + len(pairs_nc))
    raw_errors = np.reshape(result.error_estimate, shape)
    converged = np.array(result.converged, dtype=bool).reshape(len(points))
    worst = np.max(raw_errors, axis=1)
    values = np.reshape(result.value, shape) / THIRTY_TWO_PI_SQ
    errors = raw_errors / THIRTY_TWO_PI_SQ
    tensors = []
    for i, (tp, vals, errs) in enumerate(zip(points, values, errors)):
        err = _parts(stack_c, pairs_nc, errs, cut)
        info = EvaluationInfo(
            {
                "grid": grid,
                "temperature": tp.temperature,
                "refinement": {"disk": disk, "radius": radius, "r_min": r_min},
                "evaluations": result.evaluations,
                "error_classical": err[0],
                "error_nonclassical": err[1],
            }
        )
        tensor = BuresTensor(*_parts(stack_c, pairs_nc, vals, cut), info)
        if full:
            _derive_full(tp, tensor.classical, tensor.nonclassical, err)
            worst[i] = np.max(err) * THIRTY_TWO_PI_SQ
            scale = max(np.max(np.abs(tensor.classical)), np.max(np.abs(tensor.nonclassical)))
            converged[i] = np.max(err) <= grid.target_rel_tol * max(scale, 1e-300)
        tensors.append(tensor)
    if full:
        result = replace(result, converged=converged)
    if not np.all(converged):
        members = [
            tensor if ok else _tolerance_missed([tp], err, result)
            for tp, tensor, ok, err in zip(points, tensors, converged, worst)
        ]
        failed = [tp for tp, ok in zip(points, converged) if not ok]
        raise _tolerance_missed(failed, worst[~converged], result, members)
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
    actually evaluated, which the batch shares.  A full tensor
    (``elements=None``) integrates 9 entries (on the cut, one of each pair
    that s exchanges, see ``_integrated_pairs``) and derives the other 7
    from the null vectors (see the module docstring); each derived entry's
    error is propagated from the computed ones by the same linear formula
    with |J|, and the point counts as converged when its largest error over
    all 16 entries meets the tolerance against its largest entry.  Raises
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
    return _zone_tensors(points, grid, pairs_c, pairs_nc, _tanh_sq_ratio, full=elements is None)


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
    classical part is zero by construction.  With ``elements=None`` the
    nonclassical null vector holds for this kernel too: 3 entries are
    integrated (2 on the cut at c = z) and 3 derived.
    """
    if any(tp.zero_temperature for tp in points):
        raise ValueError("the thermal correction is defined for T > 0")
    pairs_c, pairs_nc = _select_pairs(elements)
    if pairs_c and elements is not None:
        raise ValueError("the thermal correction has no classical part")
    return _zone_tensors(points, grid, [], pairs_nc, _minus_sech_sq_ratio, full=elements is None)


# ---------------------------------------------------------------------------
# the per-mode fidelity oracle


def _entry_sums(g: np.ndarray) -> np.ndarray:
    """Compensated per-entry sum of a stack of (..., 4, 4) metrics.

    Only the 10 entries on or above the diagonal are summed; the rest are
    their mirrors.  The stack must therefore be symmetric bit for bit, which
    each of the oracle's four stacks is: ``analytic_metric`` returns each
    part as ``0.5 * (g + g^T)``, whose mirrored entries are the same sum of
    the same two floats, and ``finite_difference_metric_pairs`` writes one
    value into both off-diagonal slots, so the difference of its two stacks
    is symmetric too.
    """
    flat = g.reshape(-1, 4, 4)
    out = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            out[i, j] = out[j, i] = compensated_sum(flat[:, i, j])
    return out


def _zero_beta_row(m: np.ndarray) -> tuple[np.ndarray, float]:
    residual = float(
        max(np.max(np.abs(m[ParameterIndex.BETA, :])), np.max(np.abs(m[:, ParameterIndex.BETA])))
    )
    out = m.copy()
    out[ParameterIndex.BETA, :] = 0.0
    out[:, ParameterIndex.BETA] = 0.0
    return out, residual


def _mode_pair_fidelities(px, py, r0, theta0, sech0, x0):
    """Pair fidelity of the mode family against lambda0, given its Bloch
    data, stacked (2, modes): the Uhlmann fidelity, then the Bhattacharyya
    overlap of the spectra.  Only the second parameter vector is evaluated;
    the first is always lambda0.

    Both are exact closed forms in Bloch parameters.  For two single-plane
    qubit states, F^2 = tr(rho sigma) + 2 sqrt(det rho det sigma)
    = (1 + r_a r_b cos(theta_a - theta_b)) / 2 + sech(x_a/2) sech(x_b/2) / 2.
    The spectra are p_plus = 1 / (1 + e^-x), p_minus = 1 / (1 + e^x) with
    x = beta lam; the rank pairing follows the smooth branch (p_plus >=
    p_minus always).  Evaluating from (r, theta, x) instead of matrix entries
    keeps full relative accuracy at large beta*lam, where the matrix
    representation rounds the state to pure and any downstream fidelity
    loses the exponentially small eigenvalue.  Both identities are pinned
    against the matrix fidelities in the test suite.
    """

    def occupations(x):
        e = np.exp(-x)  # x >= 0, so this cannot overflow
        return 1.0 / (1.0 + e), e / (1.0 + e)

    p_hi, p_lo = occupations(x0)

    def pair(lam_a, lam_b):
        rb, tb, sb, xb = _mode_bloch(px, py, lam_b)
        f2 = 0.5 * (1.0 + r0 * rb * np.cos(theta0 - tb)) + 0.5 * sech0 * sb
        q_hi, q_lo = occupations(xb)
        return np.stack([
            np.sqrt(np.clip(f2, 0.0, 1.0)),
            np.minimum(np.sqrt(p_hi * q_hi) + np.sqrt(p_lo * q_lo), 1.0),
        ])

    return pair


def tensor_oracle(tp: ThermoPoint, L: int) -> BuresTensor:
    """Per-site tensor rebuilt from per-mode density matrices.

    For every momentum of the L x L grid (the broadcast grid
    ``xs[:, None], xs[None, :]``, every node, no symmetry used) the thermal
    qubit family (beta, jx, jy, jz) -> _mode_matrix is differentiated
    twice over:

    * one finite-difference pass (Richardson-refined central differences,
      step ``ORACLE_STEP``) over the stacked Uhlmann fidelity and
      Bhattacharyya overlap, whose difference isolates the nonclassical
      part; both fidelities are evaluated in the exact closed form of the
      mode family (see _mode_pair_fidelities) so deep-gapped modes keep
      full accuracy;
    * the analytic eigen-decomposition formula (``bures.analytic_metric``).

    Mode sums are normalized per site, and the classical part is scaled by
    CLASSICAL_MODE_CALIBRATION = 2, the sites per unit cell, because the
    classical closed form counts per unit cell (see module docstring).  The returned parts
    come from the analytic route; the finite-difference parts are stored in
    evaluation.details.

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
    eps, so its parts carry about ``eps / ORACLE_STEP^2`` (~2e-8) of
    rounding: it confirms classical parts down to about 1e-5 per site, and
    the oracle refuses smaller ones above the floor.
    """
    if tp.zero_temperature:
        raise ValueError("the per-mode oracle requires a finite temperature")
    L = _grid_size(L)
    xs = _momentum_axis(L)
    px, py = xs[:, None], xs[None, :]
    lam0 = np.array([tp.beta, tp.couplings.jx, tp.couplings.jy, tp.couplings.jz])
    bloch0 = _mode_bloch(px, py, lam0)
    g_total_fd, g_classical_fd = bures.finite_difference_metric_pairs(
        _mode_pair_fidelities(px, py, *bloch0), lam0, ORACLE_STEP
    )

    def family(lam):
        return _mode_matrix(*_mode_bloch(px, py, lam)[:2])

    decomp = bures.spectral_decomposition(_mode_matrix(*bloch0[:2]), validate=False)
    h = 1e-6
    eye = np.eye(4)
    drho = [(family(lam0 + h * e) - family(lam0 - h * e)) / (2.0 * h) for e in eye]
    md = bures.analytic_metric(decomp, drho, check_inputs=False)

    sites = 2 * L * L
    an_c = (CLASSICAL_MODE_CALIBRATION / sites) * _entry_sums(md.classical)
    an_nc = (1.0 / sites) * _entry_sums(md.nonclassical)
    fd_c = (CLASSICAL_MODE_CALIBRATION / sites) * _entry_sums(g_classical_fd)
    fd_nc = (1.0 / sites) * _entry_sums(g_total_fd - g_classical_fd)
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

    info = EvaluationInfo(
        {
            "L": L,
            "fd_classical": fd_c,
            "fd_nonclassical": fd_nc,
            "beta_row_residual": residual_an,
            "fd_beta_row_residual": residual_fd,
        }
    )
    return BuresTensor(an_c, an_nc, info)
