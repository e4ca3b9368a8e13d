"""The closed forms against the many-body Gibbs state on the 3 x 3 torus.

The vortex-free, gauge-fixed (u = +1) Majorana Hamiltonian

    H = i sum_links J_a c_A c_B

on the L = 3 torus has 18 Majoranas.  The z-link joins A(r) to B(r), and the
x- and y-links join A(r) to B(r + e1) and B(r + e2).  By Jordan-Wigner on 9
qubits, H acts on a 512-dimensional Fock space, with fermion parity left
unprojected.  The Gibbs state comes from a dense ``eigh``.  ``d rho`` comes
from the Daleckii-Krein formula in its eigenbasis, and the metric from
``bures.analytic_metric``, divided by 2 L^2 = 18 sites.  Nothing here reads
a momentum-space formula of the closed forms: only the comparison does.

The state factors into blocks of the modes q and -q, with energies -lam,
0, 0 and +lam, not into qubits.  So, per site:

* the classical part is half the closed form's (``tensor_finite(tp, 3)``):
  the occupations are independent fermions, and the closed form counts per
  unit cell;
* the nonclassical part is the closed-form sum with the pair weight of the
  one-particle sector, tanh(x) tanh(x/2) = 1 - sech x, in place of the two
  qubits' 2 tanh^2(x/2): the kernel tanh(x) tanh(x/2) / 2, x = beta lam.

On the cut jx = jy, many-body levels of different momenta are degenerate,
and the split of a degenerate eigenbasis into the two parts is not unique:
there only the totals are compared.  The couplings keep every lam(q) of
the 3 x 3 grid away from zero; the closed forms drop a zero mode, and the
Fock state keeps it.
"""

import itertools
import math

import numpy as np
import pytest

from helpers import null_residuals
from kitaev_bures import bures
from kitaev_bures.spectrum import Couplings, spectral_arrays
from kitaev_bures.thermal_metric import ThermoPoint, tensor_finite

L = 3
CELLS = L * L
SITES = 2 * CELLS
DIM = 2**CELLS
# the bures module drops the classical terms of eigenvalues below its
# EIGENVALUE_FLOOR = 1e-14 (a 0/0 limit): at T = 0.3 the dropped levels move
# the classical part by up to 2.5e-11 of its largest entry; the nonclassical
# part and the null vectors hold to a few 1e-15
CLASSICAL_RTOL = 1e-10
NONCLASSICAL_RTOL = 1e-12
NULL_RTOL = 1e-13


def _majorana(k):
    """Majorana ``k`` by Jordan-Wigner: qubit j = k // 2 carries c_{2j} =
    Z..Z X_j and c_{2j+1} = Z..Z Y_j.  Returned as the basis state each
    state goes to and its phase: c |s> = phase[s] |target[s]>."""
    j = k // 2
    s = np.arange(DIM)
    below = s & ((1 << j) - 1)
    string = (-1.0) ** np.array([bin(b).count("1") for b in below])
    bit = (s >> j) & 1
    # X |b> = |1 - b>; Y |b> = i (-1)^b |1 - b>
    phase = string * (1.0 if k % 2 == 0 else 1j * (-1.0) ** bit)
    return s ^ (1 << j), phase.astype(complex)


def _bilinear(a, b):
    """The matrix of i c_a c_b."""
    ta, pa = _majorana(a)
    tb, pb = _majorana(b)
    s = np.arange(DIM)
    m = np.zeros((DIM, DIM), dtype=complex)
    m[ta[tb], s] = 1j * pa[tb] * pb
    return m


def _link_hamiltonians():
    """d H / d J_a for a = x, y, z: the sum of i c_A c_B over the a-links."""
    def a_site(r1, r2):
        return 2 * (L * (r1 % L) + r2 % L)

    def b_site(r1, r2):
        return a_site(r1, r2) + 1

    out = []
    for d1, d2 in ((1, 0), (0, 1), (0, 0)):  # x, y, z links
        out.append(sum(_bilinear(a_site(r1, r2), b_site(r1 + d1, r2 + d2))
                       for r1 in range(L) for r2 in range(L)))
    return out


DH = _link_hamiltonians()


def many_body_metric(tp: ThermoPoint):
    """Per-site classical and nonclassical metric of the Gibbs state."""
    j = tp.couplings.as_array()
    h = sum(a * d for a, d in zip(j, DH))
    energies, v = np.linalg.eigh(h)
    k = tp.beta * (energies - energies[0])
    weights = np.exp(-k)
    z = weights.sum()
    p = weights / z
    # d(beta H): H for beta, beta dH/dJ_a for the couplings, in the eigenbasis
    directions = [h] + [tp.beta * d for d in DH]
    a = [v.conj().T @ d @ v for d in directions]
    # Daleckii-Krein: (e^-k_m - e^-k_n) / (k_m - k_n), stable at equal k
    half = 0.5 * (k[None, :] - k[:, None])
    ratio = np.where(half == 0.0, 1.0, np.sinh(half) / np.where(half == 0.0, 1.0, half))
    divided = -np.exp(-0.5 * (k[:, None] + k[None, :])) * ratio / z
    drho = []
    for m in a:
        d = divided * m
        d[np.diag_indices(DIM)] += p * np.dot(p, m.diagonal().real)
        drho.append(d)
    decomp = bures.SpectralDecomposition(eigenvalues=p, eigenvectors=np.eye(DIM))
    metric = bures.analytic_metric(decomp, drho)
    return metric.classical / SITES, metric.nonclassical / SITES


def gibbs_kernel_sum(tp: ThermoPoint) -> np.ndarray:
    """The closed-form nonclassical sum over the 3 x 3 grid, per site, with
    the kernel tanh(x) tanh(x/2) / 2 in place of tanh^2(x/2)."""
    xs = (2.0 * math.pi / L) * np.arange(-1, 2)
    f = spectral_arrays(xs[:, None], xs[None, :], tp.couplings)
    x = tp.beta * f.lam
    weight = np.tanh(x) * np.tanh(0.5 * x) / 2.0 / f.lam**4
    theta = [f.theta_x, f.theta_y, f.theta_z]
    g = np.zeros((4, 4))
    for a, b in itertools.product(range(3), repeat=2):
        g[a + 1, b + 1] = np.mean(weight * theta[a] * theta[b]) / 8.0
    return g


OFF_CUT = [Couplings(0.3, 0.2, 0.5), Couplings(0.1, 0.15, 0.75), Couplings(0.45, -0.2, 0.35)]


@pytest.mark.parametrize("couplings", OFF_CUT, ids=str)
def test_fock_spectrum_is_the_sum_of_mode_energies(couplings):
    # H = sum_q lam(q) (n_q - 1/2) over the 9 momenta 2 pi m / 3: the grid
    # that tensor_finite(tp, 3) sums over
    xs = (2.0 * math.pi / L) * np.arange(-1, 2)
    lam = spectral_arrays(xs[:, None], xs[None, :], couplings).lam.ravel()
    modes = np.array(list(itertools.product((-0.5, 0.5), repeat=CELLS)))
    expected = np.sort(modes @ lam)
    h = sum(a * d for a, d in zip(couplings.as_array(), DH))
    assert np.max(np.abs(np.linalg.eigvalsh(h) - expected)) <= 1e-12 * lam.sum()


def assert_null_vectors(tp, classical, nonclassical):
    """(-beta, J) is a null vector of the metric, so of each part, both
    being positive semidefinite; the nonclassical beta row vanishes."""
    assert max(null_residuals(classical, nonclassical, tp.beta, tp.couplings)) <= NULL_RTOL
    assert np.max(np.abs(nonclassical[0])) <= NULL_RTOL * np.max(np.abs(nonclassical))


@pytest.mark.parametrize("temperature", [0.3, 1.0])
@pytest.mark.parametrize("couplings", OFF_CUT, ids=str)
def test_fock_state_parts_match_the_closed_forms(couplings, temperature):
    tp = ThermoPoint.from_temperature(couplings, temperature)
    classical, nonclassical = many_body_metric(tp)
    closed = tensor_finite(tp, L)
    half = 0.5 * closed.classical
    assert np.max(np.abs(classical - half)) <= CLASSICAL_RTOL * np.max(np.abs(half))
    gibbs = gibbs_kernel_sum(tp)
    assert np.max(np.abs(nonclassical - gibbs)) <= NONCLASSICAL_RTOL * np.max(np.abs(gibbs))
    # the pair weight is the Gibbs state's, not the qubits': at these
    # temperatures the two nonclassical kernels differ by 17-96%
    assert np.max(np.abs(nonclassical - closed.nonclassical)) > 0.1 * np.max(np.abs(gibbs))
    assert_null_vectors(tp, classical, nonclassical)


@pytest.mark.parametrize("temperature", [0.3, 1.0])
def test_fock_state_total_matches_on_the_cut(temperature):
    tp = ThermoPoint.from_temperature(Couplings(0.3, 0.3, 0.4), temperature)
    classical, nonclassical = many_body_metric(tp)
    expected = 0.5 * tensor_finite(tp, L).classical + gibbs_kernel_sum(tp)
    total = classical + nonclassical
    assert np.max(np.abs(total - expected)) <= CLASSICAL_RTOL * np.max(np.abs(expected))
    assert_null_vectors(tp, classical, nonclassical)
