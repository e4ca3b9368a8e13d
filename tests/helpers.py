"""Shared test utilities."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def entrywise_close(actual, expected, rtol, scale_frac=1e-3):
    """Entrywise relative comparison with a floor for near-zero entries.

    Entries whose magnitude is below ``scale_frac`` of the matrix scale only
    need to agree absolutely at rtol * scale (a zero-crossing entry has no
    meaningful relative error).
    """
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    tol = rtol * np.maximum(np.abs(expected), scale_frac * scale)
    return np.all(np.abs(actual - expected) <= tol)


def max_rel_dev(actual, expected, scale_frac=1e-3):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    denom = np.maximum(np.abs(expected), scale_frac * scale)
    return float(np.max(np.abs(actual - expected) / denom))


def random_couplings(rng, region=None, lo=0.1, hi=0.9):
    """Random positive couplings, optionally filtered by phase region tag."""
    from kitaev_bures.spectrum import Couplings, classify_phase

    while True:
        j = Couplings(*rng.uniform(lo, hi, size=3))
        if region is None:
            return j
        if classify_phase(j).value == region:
            return j


def integrand_at(part, mu, nu, p, tp):
    """The closed-form integrand of element (part, mu, nu) at momentum p,
    without the 1/(32 pi^2) prefactor and without the cut's average."""
    from kitaev_bures.spectrum import spectral_arrays
    from kitaev_bures.thermal_metric import _components, _tanh_sq_ratio

    pairs = ([(mu, nu)], []) if part == "c" else ([], [(mu, nu)])
    fields = spectral_arrays(p.px, p.py, tp.couplings)
    return float(_components(fields, [tp], *pairs, _tanh_sq_ratio, cut=False)[0, 0])


def random_density_matrix(rng, dim, lead=()):
    a = rng.normal(size=lead + (dim, dim)) + 1j * rng.normal(size=lead + (dim, dim))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_hermitian(rng, dim, scale=1.0, lead=()):
    a = rng.normal(size=lead + (dim, dim)) + 1j * rng.normal(size=lead + (dim, dim))
    return scale * 0.5 * (a + a.conj().swapaxes(-1, -2))


def smooth_state_family(rng, dim, n_params=3):
    """Smooth strictly-positive density-matrix family for oracle tests.

    rho(l) = U(l) diag(softmax(a + B l)) U(l)^dagger with U(l) = exp(i H(l)),
    H(l) = H0 + sum_mu l_mu H_mu.
    """
    a = rng.normal(size=dim)
    b = rng.normal(size=(dim, n_params))
    h0 = random_hermitian(rng, dim)
    hs = [random_hermitian(rng, dim, scale=0.7) for _ in range(n_params)]

    def family(lam):
        lam = np.asarray(lam, dtype=float)
        logits = a + b @ lam
        w = np.exp(logits - np.max(logits))
        w = w / np.sum(w)
        h = h0 + sum(l * hm for l, hm in zip(lam, hs))
        ew, ev = np.linalg.eigh(h)
        u = (ev * np.exp(1j * ew)) @ ev.conj().T
        return (u * w) @ u.conj().T

    return family


def numeric_drho(family, lam0, h=1e-6):
    lam0 = np.asarray(lam0, dtype=float)
    k = lam0.size
    eye = np.eye(k)
    out = []
    for mu in range(k):
        d = (family(lam0 + h * eye[mu]) - family(lam0 - h * eye[mu])) / (2.0 * h)
        d = 0.5 * (d + d.conj().swapaxes(-1, -2))
        # the family has exactly unit trace; remove finite-difference noise
        dim = d.shape[-1]
        d = d - (np.trace(d, axis1=-2, axis2=-1) / dim)[..., None, None] * np.eye(dim)
        out.append(d)
    return out


def full_zone_reference(f, centres, r_min, radius, grid, axes=None):
    """The refined zone rule on every node: all of the 2 base_n trapezoid
    grid (the level after one doubling) under the partition mask, plus all
    of the finer disk around every centre, the grid summed by
    compensated_sum and each full disk by the module's own disk rule.

    ``centres`` must be closed under p -> -p (each given as it should be
    integrated, corners exactly) and ``axes`` parallels them; every disk
    has ``radius`` and resolves down to ``r_min``.  The mask is built here
    from plain wrapped distances, not by the module.  Returns the integral
    with the integrand's leading axes."""
    import math

    from kitaev_bures.quadrature import _bump, _disk_integral, _probe, compensated_sum
    from kitaev_bures.spectrum import wrap_angle

    axes = [None] * len(centres) if axes is None else axes

    def dist(px, py, c):
        return np.hypot(wrap_angle(px - c[0]), wrap_angle(py - c[1]))

    n = 2 * grid.base_n
    xs = -math.pi + (2.0 * math.pi / n) * np.arange(n)
    px, py = np.meshgrid(xs, xs, indexing="ij")
    mask = np.zeros(px.shape)
    for c in centres:
        mask += _bump(dist(px, py, c).ravel(), radius).reshape(px.shape)
    vals = f(px, py) * (1.0 - mask)
    lead = vals.shape[:-2]
    out = np.array(
        [4.0 * math.pi**2 * compensated_sum(v) / (n * n) for v in vals.reshape((-1, n, n))]
    )
    level = grid.refine_levels + 1
    for c, axis in zip(centres, axes):
        disk, _ = _disk_integral(f, _probe(f)[0], c, radius, r_min, level, axis, False)
        out = out + disk.ravel()
    return out.reshape(lead)


def null_residuals(classical, nonclassical, beta, couplings):
    """|g^c v| / (max|g^c| max|v|) with v = (-beta, J), and |g^nc_JJ J| /
    (max|g^nc| max|J|) (0 for a zero part).  The Gibbs state depends on
    beta J only, so both vanish for the metric of any route that keeps the
    identity: the closed forms hold it pointwise, the Fock state exactly."""
    v = np.array([-beta, *couplings.as_array()])
    j = v[1:]

    def ratio(residual, m, w):
        scale = np.max(np.abs(m)) * np.max(np.abs(w))
        return float(np.max(np.abs(residual)) / scale) if scale else 0.0

    return ratio(classical @ v, classical, v), ratio(nonclassical[1:, 1:] @ j, nonclassical, j)
