import math

import numpy as np
import pytest

from helpers import (
    max_rel_dev,
    numeric_drho,
    random_density_matrix,
    random_hermitian,
    smooth_state_family,
)
from kitaev_bures.bures import (
    DensityMatrixError,
    EigenvalueFloorError,
    analytic_metric,
    classical_fidelity,
    finite_difference_metric,
    spectral_decomposition,
    uhlmann_fidelity,
    validate_density_matrix,
)


def qubit(r, theta):
    """rho = (1/2)(I + r n(theta).sigma) with n in the xz plane."""
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    return 0.5 * (np.eye(2) + r * (math.cos(theta) * sz + math.sin(theta) * sx))


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_of_state_with_itself(rng):
    for dim in (2, 3, 5):
        rho = random_density_matrix(rng, dim)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_commuting_diagonal_reduction():
    rho = np.diag([0.7, 0.3]).astype(complex)
    sigma = np.diag([0.4, 0.6]).astype(complex)
    expected = math.sqrt(0.7 * 0.4) + math.sqrt(0.3 * 0.6)
    assert uhlmann_fidelity(rho, sigma) == pytest.approx(expected, rel=1e-12)


def test_classical_fidelity_pairs_spectra_by_rank():
    # rank pairing follows the smooth eigenvalue branch for fd oracles
    rho = np.diag([0.7, 0.3]).astype(complex)
    sigma = np.diag([0.4, 0.6]).astype(complex)
    expected = math.sqrt(0.7 * 0.6) + math.sqrt(0.3 * 0.4)
    assert classical_fidelity(rho, sigma) == pytest.approx(expected, rel=1e-12)


def test_fidelity_pure_state_overlap():
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    assert uhlmann_fidelity(zero, plus) == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_fidelity_symmetry_range_unitary_invariance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        rho = random_density_matrix(rng, dim)
        sigma = random_density_matrix(rng, dim)
        f = uhlmann_fidelity(rho, sigma)
        assert 0.0 <= f <= 1.0
        assert f == pytest.approx(uhlmann_fidelity(sigma, rho), abs=1e-10)
        h = random_hermitian(rng, dim)
        ew, ev = np.linalg.eigh(h)
        u = (ev * np.exp(1j * ew)) @ ev.conj().T
        f_rot = uhlmann_fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert f_rot == pytest.approx(f, abs=1e-10)


def test_fidelity_batched_matches_scalar(rng):
    rhos = np.stack([random_density_matrix(rng, 2) for _ in range(7)])
    sigmas = np.stack([random_density_matrix(rng, 2) for _ in range(7)])
    batched = uhlmann_fidelity(rhos, sigmas)
    for i in range(7):
        assert batched[i] == pytest.approx(uhlmann_fidelity(rhos[i], sigmas[i]), abs=1e-13)


def test_fidelity_validation_errors(rng):
    rho = random_density_matrix(rng, 2)
    with pytest.raises(DensityMatrixError):
        uhlmann_fidelity(rho, random_density_matrix(rng, 3))
    with pytest.raises(DensityMatrixError):
        uhlmann_fidelity(rho, np.array([[1.2, 0], [0, -0.2]], dtype=complex))
    with pytest.raises(DensityMatrixError):
        validate_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
    with pytest.raises(DensityMatrixError):
        validate_density_matrix(0.9 * np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# analytic metric


def test_analytic_metric_zero_directions(rng):
    rho = random_density_matrix(rng, 3)
    decomp = spectral_decomposition(rho)
    md = analytic_metric(decomp, [np.zeros((3, 3), dtype=complex)] * 2)
    assert np.all(md.classical == 0.0)
    assert np.all(md.nonclassical == 0.0)


def test_qubit_rotating_family_pure_nonclassical():
    r = 0.6
    family = lambda lam: qubit(r, float(lam[0]))
    decomp = spectral_decomposition(family(np.zeros(1)))
    md = analytic_metric(decomp, numeric_drho(family, np.zeros(1)))
    assert md.nonclassical[0, 0] == pytest.approx(r * r / 4.0, rel=1e-8)
    assert abs(md.classical[0, 0]) < 1e-12
    fd = finite_difference_metric(family, np.zeros(1), 1e-4)
    assert fd[0, 0] == pytest.approx(r * r / 4.0, rel=1e-5)


def test_qubit_radial_family_pure_classical():
    r = 0.6
    family = lambda lam: qubit(float(lam[0]), 0.3)
    decomp = spectral_decomposition(family(np.array([r])))
    md = analytic_metric(decomp, numeric_drho(family, np.array([r])))
    assert md.classical[0, 0] == pytest.approx(1.0 / (4.0 * (1 - r * r)), rel=1e-8)
    assert abs(md.nonclassical[0, 0]) < 1e-10
    fd = finite_difference_metric(family, np.array([r]), 1e-4)
    assert fd[0, 0] == pytest.approx(1.0 / (4.0 * (1 - r * r)), rel=1e-5)


def test_analytic_total_matches_fidelity_oracle(rng):
    # the central identity: eigen-decomposition formula (real pair weight)
    # against pure finite-difference Uhlmann fidelity, dims 2..8
    for dim in range(2, 9):
        family = smooth_state_family(rng, dim)
        lam0 = rng.normal(scale=0.3, size=3)
        decomp = spectral_decomposition(family(lam0))
        md = analytic_metric(decomp, numeric_drho(family, lam0))
        fd = finite_difference_metric(family, lam0, 1e-4)
        assert max_rel_dev(md.total, fd) < 1e-4


def test_parameter_independent_eigenbasis_has_no_nonclassical_part(rng):
    dim = 4
    logits = rng.normal(size=dim)
    b = rng.normal(size=(dim, 2))
    h0 = random_hermitian(rng, dim)
    ew, ev = np.linalg.eigh(h0)
    u = (ev * np.exp(1j * ew)) @ ev.conj().T

    def family(lam):
        z = logits + b @ np.asarray(lam, dtype=float)
        w = np.exp(z - np.max(z))
        w /= w.sum()
        return (u * w) @ u.conj().T

    lam0 = np.zeros(2)
    md = analytic_metric(spectral_decomposition(family(lam0)), numeric_drho(family, lam0))
    assert float(np.max(np.abs(md.nonclassical))) < 1e-10
    fd = finite_difference_metric(family, lam0, 1e-4)
    assert max_rel_dev(md.classical, fd) < 1e-4


def test_isospectral_family_has_no_classical_part(rng):
    dim = 4
    w = np.sort(rng.uniform(0.05, 1.0, size=dim))[::-1]
    w /= w.sum()
    hs = [random_hermitian(rng, dim) for _ in range(2)]

    def family(lam):
        h = sum(l * hm for l, hm in zip(lam, hs))
        ew, ev = np.linalg.eigh(h)
        u = (ev * np.exp(1j * ew)) @ ev.conj().T
        return (u * w) @ u.conj().T

    lam0 = np.array([0.2, -0.1])
    md = analytic_metric(spectral_decomposition(family(lam0)), numeric_drho(family, lam0))
    assert float(np.max(np.abs(md.classical))) < 1e-10


def test_metric_parts_are_psd(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        family = smooth_state_family(rng, dim)
        lam0 = rng.normal(scale=0.3, size=3)
        md = analytic_metric(spectral_decomposition(family(lam0)), numeric_drho(family, lam0))
        for part in (md.classical, md.nonclassical, md.total):
            assert float(np.min(np.linalg.eigvalsh(part))) >= -1e-10


def test_degenerate_pair_is_stable():
    # maximally mixed qubit rotating: p_i equal, the rewritten pair weight
    # |<i|drho|j>|^2 / (p_i + p_j) stays finite
    eps = 1e-13
    family = lambda lam: qubit(eps, float(lam[0]))
    decomp = spectral_decomposition(family(np.zeros(1)))
    md = analytic_metric(decomp, numeric_drho(family, np.zeros(1), h=1e-5))
    assert np.isfinite(md.total).all()
    assert abs(md.nonclassical[0, 0]) < 1e-12


def test_eigenvalue_floor_error():
    decomp = spectral_decomposition(np.diag([1.0, 0.0]).astype(complex), validate=False)
    bad = [np.diag([-1.0, 1.0]).astype(complex)]
    with pytest.raises(EigenvalueFloorError):
        analytic_metric(decomp, bad)


def _random_traceless_hermitian(rng, dim, lead=()):
    h = random_hermitian(rng, dim, lead=lead)
    return h - (np.trace(h, axis1=-2, axis2=-1)[..., None, None] / dim) * np.eye(dim)


def _loop_reference_metric(decomp, drho):
    """The Bures metric parts from one V^dagger d V product per direction and
    explicit sums over eigenvalues and pairs."""
    p, v = decomp.eigenvalues, decomp.eigenvectors
    a = [v.conj().swapaxes(-1, -2) @ d @ v for d in drho]
    k, dim = len(a), p.shape[-1]
    classical = np.zeros(p.shape[:-1] + (k, k))
    nonclassical = np.zeros(p.shape[:-1] + (k, k))
    for m in range(k):
        for n in range(k):
            for i in range(dim):
                classical[..., m, n] += 0.25 * (
                    a[m][..., i, i].real * a[n][..., i, i].real / p[..., i]
                )
                for j in range(dim):
                    if i != j:
                        nonclassical[..., m, n] += 0.5 * (
                            (a[m][..., i, j] * a[n][..., i, j].conj()).real
                            / (p[..., i] + p[..., j])
                        )
    return classical, nonclassical


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)], ids=["single", "stack", "grid"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_analytic_metric_matches_a_per_direction_loop(rng, dim, lead):
    # the one-contraction eigenbasis step and the real/imaginary pair sums
    # against one V^dagger d V product per direction
    decomp = spectral_decomposition(random_density_matrix(rng, dim, lead))
    drho = [_random_traceless_hermitian(rng, dim, lead) for _ in range(3)]
    md = analytic_metric(decomp, drho)
    classical, nonclassical = _loop_reference_metric(decomp, drho)
    for got, want in ((md.classical, classical), (md.nonclassical, nonclassical)):
        assert got.shape == lead + (3, 3)
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


def test_analytic_metric_broadcasts_directions(rng):
    # an unstacked (d, d) direction stands for the same derivative at every
    # state of a stack, next to stacked directions or on its own
    decomp = spectral_decomposition(random_density_matrix(rng, 3, (5,)))
    fixed = _random_traceless_hermitian(rng, 3)
    stacked = _random_traceless_hermitian(rng, 3, (5,))
    md = analytic_metric(decomp, [fixed, stacked])
    explicit = analytic_metric(decomp, [np.broadcast_to(fixed, (5, 3, 3)), stacked])
    assert md.classical.shape == md.nonclassical.shape == (5, 2, 2)
    assert np.array_equal(md.classical, explicit.classical)
    assert np.array_equal(md.nonclassical, explicit.nonclassical)
    alone = analytic_metric(decomp, [fixed])
    assert alone.classical.shape == (5, 1, 1)
    assert max_rel_dev(alone.total, explicit.total[:, :1, :1]) < 1e-13
    # and stacked directions at a single state broadcast that state
    single = spectral_decomposition(random_density_matrix(rng, 3))
    assert analytic_metric(single, [fixed, stacked]).total.shape == (5, 2, 2)


def test_finite_difference_constant_family_is_zero(rng):
    rho = random_density_matrix(rng, 3)
    fd = finite_difference_metric(lambda lam: rho, np.zeros(2), 1e-4)
    assert float(np.max(np.abs(fd))) < 1e-7


def test_finite_difference_validates_step(rng):
    rho = random_density_matrix(rng, 2)
    with pytest.raises(ValueError):
        finite_difference_metric(lambda lam: rho, np.zeros(1), 0.0)

