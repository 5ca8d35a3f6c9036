"""Device geometries: 1D facilitation chains and the cylindrical 3D gas
with hard-core minimum-distance sampling and region-based detunings."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .model import AtomNetwork, InputError


class PackingError(RuntimeError):
    """Rejection sampling could not place all atoms."""


@dataclass(frozen=True)
class CylinderSpec:
    """Cylindrical trap along x: length, radius, atom count and hard-core
    minimum distance (micrometers)."""

    length: float
    radius: float
    n_atoms: int
    d_min: float

    def __post_init__(self):
        if min(self.length, self.radius, self.d_min) <= 0 or self.n_atoms < 1:
            raise InputError("cylinder parameters must be positive")
        sphere_vol = self.n_atoms * (4.0 / 3.0) * np.pi * (self.d_min / 2) ** 3
        if sphere_vol >= 0.3 * np.pi * self.radius**2 * self.length:
            warnings.warn("cylinder packing fraction above 30%; sampling may "
                          "be slow or fail", stacklevel=2)


# candidates drawn per batch: enough that a sparse gas needs few batches
BATCH = 1024
MAX_ATTEMPTS_PER_ATOM = 1000  # candidates per atom before sampling gives up


def _candidates(spec: CylinderSpec, rng, count: int):
    """`count` uniform points in the cylinder, as lists of their x, y and z
    and of their grid cells (side d_min) along each axis: one x, r, theta
    draw per point, in the order and with the arithmetic of
    rng.uniform(0, L), R sqrt(rng.uniform()) and rng.uniform(0, 2 pi),
    whose 0.0 + scale * d is scale * d."""
    d = rng.random((count, 3))
    r = spec.radius * np.sqrt(d[:, 1])
    theta = 2.0 * np.pi * d[:, 2]
    p = np.array([spec.length * d[:, 0], r * np.cos(theta),
                  r * np.sin(theta)])
    return p.tolist(), (p // spec.d_min).astype(int).tolist()


def sample_cylinder(spec: CylinderSpec, seed) -> np.ndarray:
    """Uniform positions in the cylinder with hard-core distance d_min.

    Rejection sampling backed by a cell grid of side d_min, so each
    candidate is checked against its 27 neighboring cells only.
    Candidates are drawn in batches and accepted one by one, in order.
    """
    rng = default_rng(seed)
    # cell (i, j, k) has key (i s + j) s + k, one per cell a candidate can
    # see: |j| and |k| stay within radius / d_min + 2
    s = int(2 * spec.radius / spec.d_min) + 6
    near = [(di * s + dj) * s + dk for di in (-1, 0, 1)
            for dj in (-1, 0, 1) for dk in (-1, 0, 1)]
    grid: dict = {}  # cell key -> indices of the atoms placed in it
    xs, ys, zs = [], [], []
    d2_min = spec.d_min**2
    max_attempts = MAX_ATTEMPTS_PER_ATOM * spec.n_atoms
    attempts = 0
    while len(xs) < spec.n_atoms:
        coords, cells = _candidates(spec, rng, BATCH)
        for x, y, z, i, j, k in zip(*coords, *cells):
            if len(xs) == spec.n_atoms:
                break
            if attempts >= max_attempts:
                raise PackingError(f"placed {len(xs)}/{spec.n_atoms} atoms "
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

