"""Exact open-system engine: the Lindblad master equation with dephasing
and decay on the 2^N basis, written once as a real sparse Liouvillian on
rho's 4^N real coordinates in an orthonormal Hermitian basis (`to_real`)
and propagated onto the record grid by `rydsim.propagate`.

The Hamiltonian is its diagonal (detunings + pairwise van der Waals
shifts) plus the implicit single-bit-flip drive.  Basis-state index
convention: bit k of the integer index is atom k's occupation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .model import (AtomNetwork, Configuration, DetuningSchedule, InputError,
                    SimParams, basis_bits)
from .propagate import CSR, propagate
from .timeseries import TimeSeries

# Largest N whose fig3-length run (t_end = 8) was completed on an 8 GB,
# 2-CPU machine (transport chain: 132 s, 458 MB resident); more atoms are
# refused.  A span's record sums take RECORD_POINTS x 2^N doubles.
ATOM_CAP = 10
SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SparseHamiltonian:
    """Diagonal vector + implicit spin-flip structure of the drive."""

    diagonal: np.ndarray
    omega: float
    n_atoms: int

    @property
    def dim(self) -> int:
        return 1 << self.n_atoms


def _check_cap(n_atoms: int):
    """Raise before allocating for more than ATOM_CAP atoms."""
    if n_atoms > ATOM_CAP:
        raise InputError(f"N={n_atoms} exceeds quantum-engine cap {ATOM_CAP}")


def build_hamiltonian(network: AtomNetwork, detunings: np.ndarray,
                      omega: float) -> SparseHamiltonian:
    """Hamiltonian for the given per-atom detunings (schedule snapshot)."""
    n = network.n_atoms
    _check_cap(n)
    bits = basis_bits(n)
    v = network.interaction_matrix()
    det = np.asarray(detunings, dtype=float)
    diagonal = bits @ det + 0.5 * np.einsum("ci,ij,cj->c", bits, v, bits)
    return SparseHamiltonian(diagonal, float(omega), n)


def to_real(rho: np.ndarray) -> np.ndarray:
    """The 4^N real coordinates x of a Hermitian rho in the orthonormal
    Hermitian basis, at the vec index p = i << N | j: x[p] = rho[i, i] on
    the diagonal, sqrt(2) Re rho[i, j] above it (i < j) and
    sqrt(2) Im rho[j, i] below it.  An isometry: ||x||_2 = ||rho||_F."""
    x = SQRT2 * (np.triu(rho.real, 1) + np.tril(rho.imag.T, -1))
    np.fill_diagonal(x, rho.real.diagonal())
    return x.ravel()


def from_real(x: np.ndarray) -> np.ndarray:
    """The Hermitian (2^N, 2^N) rho whose coordinates are x (`to_real`)."""
    x = x.reshape((isqrt(x.size),) * 2)
    upper = (np.triu(x, 1) + 1j * np.tril(x, -1).T) / SQRT2
    return upper + upper.conj().T + np.diag(x.diagonal())


def liouvillian(ham: SparseHamiltonian, params: SimParams) -> tuple:
    """Real generator R of dx/dt, x = to_real(rho), for

    -i[H, rho] + gamma sum_k D[n_k] rho + kappa sum_k D[sigma_k] rho,

    as a `CSR` record, and the rectangle (lo, hi, b) holding its spectrum
    (see `propagate.propagate`): -i[H, .] is skew-Hermitian, its imaginary
    parts at most H's diagonal spread plus 2 N omega (Gershgorin); the
    damping, per atom at most (gamma + kappa) / 2 or kappa, is Hermitian;
    the decay feed widens both by at most N kappa / 2.

    R is P^H L P, with L the complex Liouvillian on vec(rho) and P the
    basis map of `to_real`, so the two are unitarily similar.  Row p of L
    holds: -i (E_i - E_j) minus the damping at p (dephasing gamma/2 per
    atom where i and j differ, decay kappa/2 per excitation of i and of
    j), -i omega at the N single-bit flips q of i and +i omega at those of
    j, and the decay feed kappa from p + 2^k (1 + 2^N) where atom k is
    down in both i and j.  With x[p] = Re(w_p rho[p]) and, off the
    diagonal, rho[q] = c_q (x[q] + i x[q^T]) (w_p = sqrt(2) and
    c_q = 1/sqrt(2) above it, i sqrt(2) and -i/sqrt(2) below it, both 1 on
    it), each term of L gives one real entry of R: the damping at (p, p),
    E_i - E_j at (p, p^T), the feed kappa at its own index, and each flip
    +-omega |w_p c_q| at q^T if q lies on p's side of the diagonal, else
    at q.  Filled row by row straight into CSR arrays, with no complex or
    intermediate copy; a diagonal row holds two equal entries per atom,
    and a zero where it has no transpose.
    """
    n, dim = ham.n_atoms, ham.dim
    pop = basis_bits(n).sum(axis=1)
    idx = np.arange(dim * dim, dtype=np.int32)
    i, j = idx >> n, idx & (dim - 1)
    lower, diag = i > j, i == j
    size = np.where(diag, 1.0, SQRT2)  # |w_p| = 1 / |c_p|
    trans = (j << n) | i

    def fixed():
        """Columns and values of the damping, E_i - E_j and the 2N flips."""
        yield idx, (-0.5 * params.gamma * pop[i ^ j]
                    - 0.5 * params.kappa * (pop[i] + pop[j]))
        yield trans, ham.diagonal[i] - ham.diagonal[j]
        for b in range(2 * n):
            q = idx ^ (1 << b)
            same = lower == lower[q]
            # Re(w_p (-+i omega) c_q) and Re(i w_p (-+i omega) c_q): a flip
            # of i gives +omega at q^T, or at q +omega below the diagonal
            # and -omega above it; a flip of j the opposite signs.  rho[q]
            # on the diagonal is real, and adds nothing above it.
            value = (np.where(same, ~diag[q], 2.0 * lower - 1.0)
                     * size / size[q] * (ham.omega if b >= n else -ham.omega))
            yield np.where(same, trans[q], q), value

    # each row: the 2N + 2 fixed entries, then one decay feed per atom down
    # in both i and j
    slots = 2 * n + 2
    boths = ([(1 << k) | (1 << (k + n)) for k in range(n)]
             if params.kappa > 0 else [])
    feeds = [(idx & both) == 0 for both in boths]
    indptr = np.zeros(idx.size + 1, dtype=np.int32)
    np.cumsum(slots + sum(feeds, np.zeros(idx.size, np.int32)),
              out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for s, (cols, values) in enumerate(fixed()):
        indices[indptr[:-1] + s] = cols
        data[indptr[:-1] + s] = values
    slot = indptr[:-1] + slots
    for both, feed in zip(boths, feeds):
        indices[slot[feed]] = idx[feed] | both
        data[slot[feed]] = params.kappa
        slot += feed
    feed = 0.5 * n * params.kappa
    return CSR(indptr, indices, data), (
        -n * max(0.5 * (params.gamma + params.kappa), params.kappa) - feed,
        feed, float(np.ptp(ham.diagonal)) + 2 * n * abs(ham.omega) + feed)


def lindblad_rhs(rho: np.ndarray, ham: SparseHamiltonian,
                 params: SimParams) -> np.ndarray:
    """d(rho)/dt under the master equation with dephasing and decay, for
    any rho: its Hermitian parts h1 and h2 of rho = h1 + i h2 each go
    through the real Liouvillian."""
    if rho.shape != (ham.dim, ham.dim):
        raise InputError("rho shape does not match Hamiltonian dimension")
    r, _ = liouvillian(ham, params)
    h1, h2 = (rho + rho.conj().T) / 2, (rho - rho.conj().T) / 2j
    return from_real(r @ to_real(h1)) + 1j * from_real(r @ to_real(h2))


def density_from_configuration(config: Configuration) -> np.ndarray:
    """Pure computational-basis density matrix |c><c|."""
    rho = np.zeros((1 << len(config),) * 2, dtype=complex)
    rho[config.to_index(), config.to_index()] = 1.0
    return rho


def evolve_quantum(network: AtomNetwork, params: SimParams,
                   initial: Configuration, t_end: float,
                   schedule: DetuningSchedule = DetuningSchedule(),
                   output_sites=()) -> TimeSeries:
    """Propagate the master equation from the pure state |initial> onto
    the record grid, rebuilding the Liouvillian on each schedule segment.
    Trace and positivity are checked at every record time.  `final_state`
    holds rho's real coordinates at t_end; `from_real` gives rho back.
    """
    n = network.n_atoms
    _check_cap(n)
    if len(initial) != n:
        raise InputError("initial configuration length mismatch")
    dim = 1 << n
    # to_real(|c><c|): rho[c, c] = 1 sits at the vec index c (2^N + 1)
    x = np.zeros(dim * dim)
    x[initial.to_index() * (dim + 1)] = 1.0
    return propagate(x, lambda det: liouvillian(
        build_hamiltonian(network, det, params.omega), params),
        schedule.segments(t_end, network.static_detunings), "quantum",
        output_sites, slice(None, None, dim + 1))
