"""Shared physical model: atom networks, drive/noise parameters, detuning
schedules and the facilitation formulas used by both engines.

Frequencies are in units of the drive amplitude.  Lengths are in units of
the facilitation distance for the chain devices and in micrometers for the
3D gas, whose rates and C6 `rydsim.devices` converts by hand (`GAS_PARAMS`,
`GAS_C6`) from 2pi-factored physical values: only their ratios enter, so
no 2pi appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ModelError(ValueError):
    """Invalid physical model input."""


@dataclass(frozen=True)
class AtomNetwork:
    """Atom positions, per-atom static detunings and the C6 coefficient.

    positions: (N, 3) array of lengths.
    static_detunings: (N,) array of per-atom detunings.
    c6: van der Waals coefficient, frequency * length^6, positive.
    """

    positions: np.ndarray
    static_detunings: np.ndarray
    c6: float

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ModelError("positions must be an (N, 3) array")
        det = np.asarray(self.static_detunings, dtype=float)
        if det.shape != (pos.shape[0],):
            raise ModelError("static_detunings length must match positions")
        if pos.shape[0] < 1:
            raise ModelError("need at least one atom")
        if self.c6 <= 0:
            raise ModelError("c6 must be positive")
        if not np.all(np.isfinite(pos)):
            raise ModelError("positions must be finite")
        # a zero pairwise distance is a repeated row, which sorting puts
        # next to its copy
        rows = pos[np.lexsort(pos.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ModelError("all pairwise distances must be positive")
        # column-major, so that positions.T, the (3, N) coordinate rows
        # pair_energies reads, is contiguous
        pos = np.asfortranarray(pos)
        pos.setflags(write=False)
        det.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "static_detunings", det)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def interaction_matrix(self) -> np.ndarray:
        """(N, N) matrix of C6 / r_ij^6 with zero diagonal."""
        return pair_energies(self, np.arange(self.n_atoms))


@dataclass(frozen=True)
class SimParams:
    """Rabi frequency, dephasing and decay rates.

    omega > 0, gamma >= 0, kappa >= 0, all finite.
    """

    omega: float
    gamma: float
    kappa: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.omega, self.gamma, self.kappa])):
            raise ModelError("omega, gamma and kappa must be finite")
        if self.omega <= 0:
            raise ModelError("omega must be positive")
        if self.gamma < 0 or self.kappa < 0:
            raise ModelError("gamma and kappa must be non-negative")


@dataclass(frozen=True)
class Configuration:
    """Classical configuration: bit k = 1 means atom k in the Rydberg state."""

    bits: tuple

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ModelError("configuration bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def ground(cls, n: int) -> "Configuration":
        return cls((0,) * n)

    @classmethod
    def single_excitation(cls, n: int, site: int) -> "Configuration":
        bits = [0] * n
        bits[site] = 1
        return cls(tuple(bits))

    def __len__(self) -> int:
        return len(self.bits)

    def to_index(self) -> int:
        """Basis-state index: bit k of the integer is atom k's occupation."""
        return sum(b << k for k, b in enumerate(self.bits))

    def as_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=float)


@dataclass(frozen=True)
class DetuningSchedule:
    """Piecewise-constant detuning overrides: (t_start, t_end, atom, value).

    Atoms without an active override keep their static detuning.  Atoms
    are indices into the network; intervals of one atom must not overlap.
    """

    overrides: tuple = ()

    def __post_init__(self):
        entries = []
        for t0, t1, atom, value in self.overrides:
            if not t0 < t1:
                raise ModelError("schedule interval needs t_start < t_end")
            if int(atom) < 0:
                raise ModelError(f"schedule atom {atom} is negative")
            entries.append((float(t0), float(t1), int(atom), float(value)))
        # by atom, then start: if any two overlap, some neighbours do
        entries.sort(key=lambda entry: (entry[2], entry[0]))
        for (_, s1, a, _), (t0, _, b, _) in zip(entries, entries[1:]):
            if a == b and t0 < s1:
                raise ModelError(f"overlapping overrides for atom {a}")
        object.__setattr__(self, "overrides", tuple(entries))

    def segments(self, t_end: float, static: np.ndarray) -> list:
        """(t0, t1, detunings) tiling [0, t_end], cut wherever some atom's
        detuning changes: each segment's detunings are `static` with the
        overrides in force on it (an override holds from its start up to,
        not including, its end)."""
        if any(atom >= len(static) for _, _, atom, _ in self.overrides):
            raise ModelError(f"schedule atom past the last of {len(static)}")
        cuts = sorted({t for t0, t1, _, _ in self.overrides
                       for t in (t0, t1) if 0.0 < t < t_end})
        edges = [0.0, *cuts, t_end]
        out = []
        for t0, t1 in zip(edges[:-1], edges[1:]):
            det = np.array(static, dtype=float)
            for s0, s1, atom, value in self.overrides:
                if s0 <= t0 < s1:
                    det[atom] = value
            out.append((t0, t1, det))
        return out


@lru_cache(maxsize=8)
def basis_bits(n_atoms: int) -> np.ndarray:
    """Read-only (2^N, N) occupation-number matrix of the configuration
    basis: entry [c, k] is bit k of c."""
    idx = np.arange(1 << n_atoms)
    bits = ((idx[:, None] >> np.arange(n_atoms)[None, :]) & 1).astype(np.float64)
    bits.setflags(write=False)
    return bits


def pair_energies(network: AtomNetwork, atoms: np.ndarray,
                  out: np.ndarray | None = None,
                  work: np.ndarray | None = None,
                  sign: np.ndarray | None = None) -> np.ndarray:
    """C6 / r^6 from each of `atoms` to every atom, zero for an atom and
    itself: shape (len(atoms), N), taken from the positions and written
    into `out` if given, with `work` (same shape) as its workspace.  With
    `sign` (+-1 per atom), row i is sign[i] C6 / r^6: the sign goes into
    the divide's numerator, which IEEE division makes the same bits as a
    product after it, with no pass of its own.

    r^2 is summed coordinate by coordinate in place, and r^6 is r^2 times
    r^4, with `work` (free once the sum is done) holding r^4 from
    `np.square`.  That is about four times faster on a 20 x 3000 block
    than `r2**3` (the power ufunc), and moves the last bit of about a
    quarter of its entries, yet no sampled trajectory moved with it:
    every CSV and summary.json of the default runs, of fig3 and fig7-nand
    on kmc and of a 400-atom fig4 stayed byte-identical."""
    coords = network.positions.T
    r2 = np.subtract(coords[0], coords[0, atoms][:, None], out=out)
    np.square(r2, out=r2)
    d = np.empty_like(r2) if work is None else work
    for c in (1, 2):
        np.subtract(coords[c], coords[c, atoms][:, None], out=d)
        np.square(d, out=d)
        r2 += d
    np.square(r2, out=d)
    r2 *= d
    c6 = network.c6 if sign is None else network.c6 * sign[:, None]
    with np.errstate(divide="ignore"):
        np.divide(c6, r2, out=r2)
    r2[np.arange(atoms.size), atoms] = 0.0
    return r2


def facilitation_detuning(r_f: float, c6: float) -> float:
    """Detuning that puts a neighbor at distance r_f on resonance: -c6/r_f^6."""
    if r_f <= 0 or c6 <= 0:
        raise ModelError("r_f and c6 must be positive")
    return -c6 / r_f**6


def facilitation_radius(delta_f: float, c6: float) -> float:
    """Distance at which detuning delta_f (< 0) is the facilitation detuning."""
    if delta_f >= 0 or c6 <= 0:
        raise ModelError("delta_f must be negative and c6 positive")
    return (-c6 / delta_f) ** (1.0 / 6.0)
