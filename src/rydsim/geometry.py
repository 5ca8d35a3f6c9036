"""Device geometries: 1D facilitation chains and the cylindrical 3D gas
with hard-core minimum-distance sampling and region-based detunings."""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

from .model import AtomNetwork, InputError, IntegrationError


# candidates drawn per batch: enough that a sparse gas needs few batches
BATCH = 1024
MAX_ATTEMPTS_PER_ATOM = 1000  # candidates per atom before sampling gives up


def sample_cylinder(length: float, radius: float, n_atoms: int,
                    d_min: float, seed) -> np.ndarray:
    """n_atoms uniform positions in the cylinder of the given length and
    radius along x, at least the hard-core distance d_min apart
    (micrometers).

    Rejection sampling backed by a cell grid of side d_min, so each
    candidate is checked against its 27 neighboring cells only.
    Candidates are drawn in batches and accepted one by one, in order; a
    run that has drawn MAX_ATTEMPTS_PER_ATOM per atom fails.
    """
    if min(length, radius, d_min) <= 0 or n_atoms < 1:
        raise InputError("cylinder parameters must be positive")
    rng = default_rng(seed)
    # cell (i, j, k) has key (i s + j) s + k, one per cell a candidate can
    # see: |j| and |k| stay within radius / d_min + 2
    s = int(2 * radius / d_min) + 6
    near = [(di * s + dj) * s + dk for di in (-1, 0, 1)
            for dj in (-1, 0, 1) for dk in (-1, 0, 1)]
    grid: dict = {}  # cell key -> indices of the atoms placed in it
    xs, ys, zs = [], [], []
    d2_min = d_min**2
    max_attempts = MAX_ATTEMPTS_PER_ATOM * n_atoms
    attempts = 0
    while len(xs) < n_atoms:
        # one x, r, theta draw per candidate, in the order and with the
        # arithmetic of rng.uniform(0, L), R sqrt(rng.uniform()) and
        # rng.uniform(0, 2 pi), whose 0.0 + scale * d is scale * d
        d = rng.random((BATCH, 3))
        r = radius * np.sqrt(d[:, 1])
        theta = 2.0 * np.pi * d[:, 2]
        p = np.array([length * d[:, 0], r * np.cos(theta), r * np.sin(theta)])
        cells = (p // d_min).astype(int).tolist()
        for x, y, z, i, j, k in zip(*p.tolist(), *cells):
            if len(xs) == n_atoms:
                break
            if attempts >= max_attempts:
                raise IntegrationError(f"placed {len(xs)}/{n_atoms} atoms "
                                       f"after {attempts} attempts")
            attempts += 1
            key = (i * s + j) * s + k
            if all((x - xs[q]) * (x - xs[q]) + (y - ys[q]) * (y - ys[q])
                   + (z - zs[q]) * (z - zs[q]) >= d2_min
                   for dk in near for q in grid.get(key + dk, ())):
                grid.setdefault(key, []).append(len(xs))
                xs.append(x)
                ys.append(y)
                zs.append(z)
    return np.array([xs, ys, zs]).T


def assign_regions(positions: np.ndarray, lengths, detunings) -> np.ndarray:
    """Per-atom detuning from each atom's x coordinate, for the regions of
    the given lengths laid end to end from x = 0, each with its detuning.
    An atom exactly on a cut belongs to the region on the right."""
    x = np.asarray(positions)[:, 0]
    if np.any(x < 0) or np.any(x > float(sum(lengths))):
        raise InputError("position outside [0, L_x]")
    region = np.searchsorted(np.cumsum(lengths)[:-1], x, side="right")
    return np.array(detunings, dtype=float)[region]


def build_chain(spacings, detunings, c6: float) -> AtomNetwork:
    """Collinear chain along x with the given inter-atom gaps."""
    spacings = np.asarray(spacings, dtype=float)
    if np.any(spacings <= 0):
        raise InputError("spacings must be positive")
    x = np.concatenate([[0.0], np.cumsum(spacings)])
    positions = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
    return AtomNetwork(positions, np.asarray(detunings, dtype=float), c6)

