"""Quasiparticle spectrum of the Kitaev honeycomb model (vortex-free sector).

Everything here is a pure function of the couplings (jx, jy, jz) and a
momentum p = (px, py) in the Brillouin zone [-pi, pi)^2.  The basic fields
are

    epsilon(p) = 2 (jx cos px + jy cos py + jz)
    delta(p)   = 2 (jx sin px + jy sin py)
    lam(p)     = sqrt(epsilon^2 + delta^2)        quasiparticle energy

the mode rotation angle theta(p) = arg(epsilon + i delta), which only the
mode states read (``mode_angle``), and the coupling responses that feed
the thermal metric integrands,

    omega_a = 2 (cos(p_a) epsilon + sin(p_a) delta)   for a = x, y
    omega_z = 2 epsilon
    theta_x = 4 (jz sin px + jy s_xy)
    theta_y = 4 (jz sin py - jx s_xy)
    theta_z = -2 delta

with s_xy = sin px cos py - cos px sin py = sin(px - py), evaluated in
exactly these forms.  These satisfy omega_a = lam * d(lam)/dJ_a and
theta_a = lam^2 * d(theta)/dJ_a for all three couplings (omega_z = 2
epsilon is the z-row of the same identity), which the test suite checks by
finite differences.  ``spectral_arrays`` forms epsilon, delta and lam at
once and each response (s_xy with the first theta_x or theta_y) on its
first read, so a caller pays only for the responses it reads.

The phase diagram splits into a gapless region where all three triangle
inequalities |J_a| <= |J_b| + |J_c| hold strictly, three gapped regions
(one per dominant coupling), and the critical boundary between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "Couplings",
    "Momentum",
    "SpectralArrays",
    "PhaseRegion",
    "wrap_angle",
    "spectral_arrays",
    "mode_angle",
    "classify_phase",
    "fermion_gap",
    "dirac_points",
]


def wrap_angle(x):
    """Wrap an angle (scalar or array) into [-pi, pi)."""
    return (np.asarray(x, dtype=float) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class Couplings:
    """Bond coupling strengths of the three link types.

    Any finite real values are admitted; phase classification uses absolute
    values, so sign flips relabel nothing.
    """

    jx: float
    jy: float
    jz: float

    def __post_init__(self):
        for name in ("jx", "jy", "jz"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"coupling {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.jx, self.jy, self.jz])

    def abs_max(self) -> float:
        return max(abs(self.jx), abs(self.jy), abs(self.jz))


@dataclass(frozen=True)
class Momentum:
    """A Brillouin-zone momentum; construction wraps a coordinate outside
    [-pi, pi) into it and keeps one inside bit for bit."""

    px: float
    py: float

    def __post_init__(self):
        for name in ("px", "py"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v if -math.pi <= v < math.pi else float(wrap_angle(v)))


class PhaseRegion(Enum):
    """Region of the coupling phase diagram."""

    GAPLESS_B = "gapless-B"
    GAPPED_AX = "gapped-Ax"
    GAPPED_AY = "gapped-Ay"
    GAPPED_AZ = "gapped-Az"
    CRITICAL_BOUNDARY = "critical"

    @property
    def is_gapped(self) -> bool:
        return self in (PhaseRegion.GAPPED_AX, PhaseRegion.GAPPED_AY, PhaseRegion.GAPPED_AZ)


class _Response:
    """A field formed on its first read and then kept in the instance, whose
    entry shadows this descriptor: later reads are plain attribute reads."""

    def __init__(self, form):
        self.form = form

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, fields, owner=None):
        if fields is None:
            return self
        value = fields.__dict__[self.name] = self.form(fields)
        return value


class SpectralArrays:
    """Spectral fields on a batch of momenta (see module docstring).

    ``epsilon``, ``delta`` and ``lam`` are formed with the object.  Each
    response (``omega_x``, ``omega_y``, ``omega_z``, ``theta_x``,
    ``theta_y``, ``theta_z``) is formed from the held sines and cosines on
    its first read and kept, so it is the same array on every read.  Each
    field has the broadcast shape of the momenta: 0-d at a single momentum.
    The mode angle theta is not a field: only the mode states read it, and
    ``mode_angle`` forms it from epsilon and delta.
    """

    def __init__(self, couplings: Couplings, cx, sx, cy, sy, epsilon, delta, lam):
        self._couplings = couplings
        self._cx, self._sx, self._cy, self._sy = cx, sx, cy, sy
        self.epsilon, self.delta, self.lam = epsilon, delta, lam

    omega_x = _Response(lambda f: 2.0 * (f._cx * f.epsilon + f._sx * f.delta))
    omega_y = _Response(lambda f: 2.0 * (f._cy * f.epsilon + f._sy * f.delta))
    omega_z = _Response(lambda f: 2.0 * f.epsilon)
    theta_x = _Response(lambda f: 4.0 * (f._couplings.jz * f._sx + f._couplings.jy * f._sxy))
    theta_y = _Response(lambda f: 4.0 * (f._couplings.jz * f._sy - f._couplings.jx * f._sxy))
    theta_z = _Response(lambda f: -2.0 * f.delta)
    _sxy = _Response(lambda f: f._sx * f._cy - f._cx * f._sy)  # s_xy


def spectral_arrays(px, py, couplings: Couplings) -> SpectralArrays:
    """The spectral fields on arrays of momenta (broadcasting): epsilon,
    delta and lam now, each response on its first read."""
    jx, jy, jz = couplings.jx, couplings.jy, couplings.jz
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    cx, sx = np.cos(px), np.sin(px)
    cy, sy = np.cos(py), np.sin(py)
    epsilon = 2.0 * (jx * cx + jy * cy + jz)
    delta = 2.0 * (jx * sx + jy * sy)
    return SpectralArrays(couplings, cx, sx, cy, sy, epsilon, delta, np.hypot(epsilon, delta))


def mode_angle(fields: SpectralArrays) -> np.ndarray:
    """The mode rotation angle theta = arg(epsilon + i delta), in (-pi, pi].

    At an exact zero of the dispersion it is undefined and is 0 by
    convention (the thermal integrands vanish there, and odd L momentum
    grids avoid such zeros in the gapless interior).
    """
    theta = np.arctan2(fields.delta, fields.epsilon)
    # arctan2 may return exactly -pi; fold onto (-pi, pi]
    return np.where(theta <= -math.pi, theta + TWO_PI, theta)


def classify_phase(couplings: Couplings) -> PhaseRegion:
    """Classify the coupling point into gapless, gapped, or boundary.

    The gapless region is where all of |jz| <= |jx|+|jy|, |jy| <= |jz|+|jx|,
    |jx| <= |jy|+|jz| hold with margin > tol = 1e-9 * max|J|; equality
    within tol is the critical boundary, so that floating-point trajectories
    along it classify stably; a violated inequality names the gapped region.
    """
    tol = 1e-9 * couplings.abs_max()
    ax, ay, az = abs(couplings.jx), abs(couplings.jy), abs(couplings.jz)
    margins = {
        PhaseRegion.GAPPED_AX: ay + az - ax,
        PhaseRegion.GAPPED_AY: az + ax - ay,
        PhaseRegion.GAPPED_AZ: ax + ay - az,
    }
    worst = min(margins.values())
    if worst > tol:
        return PhaseRegion.GAPLESS_B
    if worst >= -tol:
        return PhaseRegion.CRITICAL_BOUNDARY
    for region, margin in margins.items():
        if margin == worst:
            return region
    raise AssertionError("unreachable")


def fermion_gap(couplings: Couplings) -> float:
    """Minimum quasiparticle energy in a gapped phase.

    Returns 2(|J_dominant| - |J_other| - |J_other'|); zero on the boundary.
    Raises ValueError in the gapless interior, where no gap exists.
    """
    region = classify_phase(couplings)
    if region is PhaseRegion.GAPLESS_B:
        raise ValueError("fermion gap undefined in the gapless phase")
    if region is PhaseRegion.CRITICAL_BOUNDARY:
        return 0.0
    ax, ay, az = abs(couplings.jx), abs(couplings.jy), abs(couplings.jz)
    if region is PhaseRegion.GAPPED_AZ:
        return 2.0 * (az - ax - ay)
    if region is PhaseRegion.GAPPED_AY:
        return 2.0 * (ay - az - ax)
    return 2.0 * (ax - ay - az)


def _gap_minimum(couplings: Couplings) -> Momentum:
    """The gap corner: the zone corner of {0, pi}^2 with the smallest lam.

    lam = 2 |jx e^{i px} + jy e^{i py} + jz| is at least fermion_gap by the
    triangle inequality, with equality where the two smaller terms point
    against the dominant one.  That happens at a corner, where e^{i p_a} =
    +-1 and lam = 2 |jx cx + jy cy + jz| exactly: the gap minimum in every
    gapped region and the gap-closing point on the critical boundary, for
    every sign pattern.  A corner is its own mirror under p -> -p.  Ties (a
    zero coupling makes lam flat along a line) go to the first corner in a
    fixed order.
    """
    jx, jy, jz = couplings.jx, couplings.jy, couplings.jz
    corners = [(cx, cy) for cx in (1.0, -1.0) for cy in (1.0, -1.0)]
    lam = [abs(jx * cx + jy * cy + jz) for cx, cy in corners]
    cx, cy = corners[lam.index(min(lam))]
    return Momentum(0.0 if cx > 0 else math.pi, 0.0 if cy > 0 else math.pi)


def dirac_points(couplings: Couplings) -> list[Momentum]:
    """Zeros of the quasiparticle dispersion, in closed form.

    Gapless couplings have the +-K pair: cos(px - pi) = (jx^2 + jz^2 - jy^2)
    / (2 jx jz) and the analogous py equation make epsilon vanish, and
    delta = -2 (sx jx sin ux + sy jy sin uy) vanishes on the branches
    sy = -sx sign(jx jy), because |jx| sin ux = |jy| sin uy.  K = (pi + ux,
    sy (pi + uy)) mod 2 pi wraps each of pi + ux and pi + uy once, and -K
    is its exact negation, so on the cut jx == jy (where ux == uy and sy =
    -1) K = (a, -a) bit for bit, the point the reflection -s fixes.  On the
    critical boundary the pair merges at the gap corner (``_gap_minimum``),
    returned once.  Gapped couplings, and boundary couplings with a zero
    coupling (whose zeros form a line, not points), return an empty list.
    """
    region = classify_phase(couplings)
    jx, jy, jz = couplings.jx, couplings.jy, couplings.jz
    if region.is_gapped or 0.0 in (jx, jy, jz):
        return []
    if region is PhaseRegion.CRITICAL_BOUNDARY:
        return [_gap_minimum(couplings)]
    ux = math.acos(min(1.0, max(-1.0, (jx * jx + jz * jz - jy * jy) / (2.0 * jx * jz))))
    uy = math.acos(min(1.0, max(-1.0, (jy * jy + jz * jz - jx * jx) / (2.0 * jy * jz))))
    sy = -math.copysign(1.0, jx * jy)
    a, b = (float(wrap_angle(math.pi + u)) for u in (ux, uy))
    k = Momentum(a, sy * b)
    return [k, Momentum(-k.px, -k.py)]
