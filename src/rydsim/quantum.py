"""Exact open-system engine: the Lindblad master equation with dephasing
and decay on the 2^N basis, written once as a sparse Liouvillian on
vec(rho) and propagated onto the record grid by `rydsim.propagate`.

The Hamiltonian is its diagonal (detunings + pairwise van der Waals
shifts) plus the implicit single-bit-flip drive.  Basis-state index
convention: bit k of the integer index is atom k's occupation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (AtomNetwork, Configuration, DetuningSchedule, SimParams,
                    basis_bits)
from .propagate import CHUNK, SPAN_ELEMENTS, TOL, propagate
from .timeseries import TimeSeries

# Largest N whose fig3-length run (t_end = 8) was completed on an 8 GB,
# 2-CPU machine (354 s, 920 MB resident); larger estimated peaks are refused.
ATOM_CAP = 10


class CapacityError(ValueError):
    """Too many atoms for the memory the engine may allocate."""


class IntegrationError(RuntimeError):
    """The state left the physical manifold (beyond `propagate.LIMITS`)."""


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
    """Raise before allocating if a run's estimated peak bytes exceed the
    N = ATOM_CAP run's: the Liouvillian's ~(2N + 1 + N/4) 4^N complex
    entries with int32 indices, three vec(rho)-sized work vectors, a span's
    block of series terms, and its record-time sums and their update, each
    at most max(SPAN_ELEMENTS, 4^N) entries plus one vec(rho)."""
    need, cap = ((20 * (2 * n + 1 + n / 4)
                  + 16 * (3 + min(CHUNK, max(3, SPAN_ELEMENTS // 4**n))))
                 * 4**n + 32 * (max(SPAN_ELEMENTS, 4**n) + 4**n)
                 for n in (n_atoms, ATOM_CAP))
    if need > cap:
        raise CapacityError(
            f"N={n_atoms} needs ~{need / 2**30:.1f} GiB, over the "
            f"{cap / 2**30:.1f} GiB of the N={ATOM_CAP} cap")


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


def liouvillian(ham: SparseHamiltonian, params: SimParams) -> sp.csr_matrix:
    """Generator of d vec(rho)/dt, vec(rho)[i << N | j] = rho[i, j]:

    -i[H, rho] + gamma sum_k D[n_k] rho + kappa sum_k D[sigma_k] rho.

    Dephasing damps rho[i, j] by gamma/2 per atom where i and j differ,
    decay by kappa/2 per excitation of i and of j, and feeds rho[i, j]
    from rho[i + 2^k, j + 2^k] where atom k is down in both.  Filled row
    by row straight into CSR arrays, with no intermediate copy.
    """
    n, dim = ham.n_atoms, ham.dim
    pop = basis_bits(n).sum(axis=1)
    idx = np.arange(dim * dim, dtype=np.int32)
    i, j = idx >> n, idx & (dim - 1)
    # each row: the diagonal, 2N drive flips, then one decay feed per atom
    # down in both i and j
    flips = [0] + [1 << b for b in range(2 * n)]
    values = [-1j * (ham.diagonal[i] - ham.diagonal[j])
              - 0.5 * params.gamma * pop[i ^ j]
              - 0.5 * params.kappa * (pop[i] + pop[j])]
    values += [1j * ham.omega] * n + [-1j * ham.omega] * n
    boths = ([(1 << k) | (1 << (k + n)) for k in range(n)]
             if params.kappa > 0 else [])
    feeds = [(idx & both) == 0 for both in boths]
    indptr = np.zeros(idx.size + 1, dtype=np.int32)
    np.cumsum(len(flips) + sum(feeds, np.zeros(idx.size, np.int32)),
              out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    for s, (flip, value) in enumerate(zip(flips, values)):
        indices[indptr[:-1] + s] = idx ^ flip
        data[indptr[:-1] + s] = value
    slot = indptr[:-1] + len(flips)
    for both, feed in zip(boths, feeds):
        indices[slot[feed]] = idx[feed] | both
        data[slot[feed]] = params.kappa
        slot += feed
    return sp.csr_matrix((data, indices, indptr), shape=(idx.size, idx.size))


def enclosure(ham: SparseHamiltonian, params: SimParams) -> tuple:
    """The Liouvillian's rectangle (lo, hi, b) (see `propagate.bendixson`)
    without its transpose.  -i[H, .] is skew-Hermitian, its imaginary parts
    at most H's diagonal spread plus 2 N omega (Gershgorin); the damping,
    per atom at most (gamma + kappa) / 2 or kappa, is Hermitian; the decay
    feed widens both by at most N kappa / 2."""
    n, gamma, kappa = ham.n_atoms, params.gamma, params.kappa
    feed = 0.5 * n * kappa
    return (-n * max(0.5 * (gamma + kappa), kappa) - feed, feed,
            float(np.ptp(ham.diagonal)) + 2 * n * abs(ham.omega) + feed)


def lindblad_rhs(rho: np.ndarray, ham: SparseHamiltonian,
                 params: SimParams) -> np.ndarray:
    """d(rho)/dt under the master equation with dephasing and decay."""
    if rho.shape != (ham.dim, ham.dim):
        raise ValueError("rho shape does not match Hamiltonian dimension")
    return (liouvillian(ham, params) @ rho.ravel()).reshape(rho.shape)


def density_from_configuration(config: Configuration) -> np.ndarray:
    """Pure computational-basis density matrix |c><c|."""
    rho = np.zeros((1 << len(config),) * 2, dtype=complex)
    rho[config.to_index(), config.to_index()] = 1.0
    return rho


def evolve_quantum(network: AtomNetwork, params: SimParams, initial,
                   t_end: float, tol: float = TOL,
                   schedule: DetuningSchedule | None = None,
                   output_sites=()) -> TimeSeries:
    """Propagate the master equation from `initial` (a Configuration or a
    density matrix) onto the record grid, rebuilding the Liouvillian at
    schedule breakpoints.  `tol` is the propagator's truncation tolerance;
    trace, hermiticity and positivity are checked at every record time.
    """
    n = network.n_atoms
    _check_cap(n)
    if isinstance(initial, Configuration):
        if len(initial) != n:
            raise ValueError("initial configuration length mismatch")
        rho = density_from_configuration(initial)
    else:
        rho = np.array(initial, dtype=complex)
    schedule = schedule or DetuningSchedule()
    dim = 1 << n

    def build(t0):
        det = schedule.detunings_at(t0, network.static_detunings)
        ham = build_hamiltonian(network, det, params.omega)
        return liouvillian(ham, params), enclosure(ham, params)

    def observe(x):
        r = x.reshape(dim, dim)
        return r.diagonal().real, {"hermiticity": np.abs(r - r.conj().T).max()}

    ts = propagate(rho.ravel(), build, t_end, "quantum", IntegrationError,
                   output_sites, schedule.breakpoints(), tol, observe)
    ts.final_state = ts.final_state.reshape(dim, dim)
    return ts
