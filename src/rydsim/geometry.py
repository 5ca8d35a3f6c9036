"""Device geometries: 1D facilitation chains and the cylindrical 3D gas
with hard-core minimum-distance sampling and region-based detunings."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import AtomNetwork


class GeometryError(ValueError):
    pass


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
            raise GeometryError("cylinder parameters must be positive")
        sphere_vol = self.n_atoms * (4.0 / 3.0) * np.pi * (self.d_min / 2) ** 3
        if sphere_vol >= 0.3 * np.pi * self.radius**2 * self.length:
            warnings.warn("cylinder packing fraction above 30%; sampling may "
                          "be slow or fail", stacklevel=2)


@dataclass(frozen=True)
class RegionPartition:
    """Input/gate/output split of [0, L_x] with per-region detunings.

    Positions exactly on a cut belong to the region on the right.
    """

    lengths: tuple  # (L_input, L_gate, L_output)
    detunings: tuple  # (delta_input, delta_gate, delta_output)

    def __post_init__(self):
        if len(self.lengths) != 3 or len(self.detunings) != 3:
            raise GeometryError("need three regions")
        if any(l <= 0 for l in self.lengths):
            raise GeometryError("region lengths must be positive")

    @property
    def total_length(self) -> float:
        return float(sum(self.lengths))

    @property
    def boundaries(self) -> np.ndarray:
        return np.cumsum(self.lengths)[:2]

    def blocks_transport(self, r_f: float) -> bool:
        """Whether the gate region is wide enough to block direct
        input-to-output facilitation."""
        return self.lengths[1] > r_f


def sample_cylinder(spec: CylinderSpec, seed,
                    max_attempts_per_atom: int = 1000) -> np.ndarray:
    """Uniform positions in the cylinder with hard-core distance d_min.

    Rejection sampling backed by a cell grid of side d_min, so each
    candidate is checked against its 27 neighboring cells only.
    """
    rng = np.random.default_rng(seed)
    cell = spec.d_min
    grid: dict = {}
    positions = np.empty((spec.n_atoms, 3))
    d2_min = spec.d_min**2
    max_attempts = max_attempts_per_atom * spec.n_atoms
    attempts = 0
    placed = 0
    while placed < spec.n_atoms:
        if attempts >= max_attempts:
            raise PackingError(
                f"placed {placed}/{spec.n_atoms} atoms after {attempts} attempts")
        attempts += 1
        x = rng.uniform(0.0, spec.length)
        r = spec.radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p = np.array([x, r * np.cos(theta), r * np.sin(theta)])
        key = tuple((p // cell).astype(int))
        ok = True
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for q in grid.get((key[0] + dx, key[1] + dy, key[2] + dz), ()):
                        d = p - positions[q]
                        if d @ d < d2_min:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            positions[placed] = p
            grid.setdefault(key, []).append(placed)
            placed += 1
    return positions


def assign_regions(positions: np.ndarray, partition: RegionPartition) -> np.ndarray:
    """Per-atom detuning from each atom's x coordinate."""
    x = np.asarray(positions)[:, 0]
    if np.any(x < 0) or np.any(x > partition.total_length):
        raise GeometryError("position outside [0, L_x]")
    region = np.searchsorted(partition.boundaries, x, side="right")
    return np.array(partition.detunings, dtype=float)[region]


def build_chain(spacings, detunings, c6: float) -> AtomNetwork:
    """Collinear chain along x with the given inter-atom gaps."""
    spacings = np.asarray(spacings, dtype=float)
    if np.any(spacings <= 0):
        raise GeometryError("spacings must be positive")
    x = np.concatenate([[0.0], np.cumsum(spacings)])
    positions = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
    return AtomNetwork(positions, np.asarray(detunings, dtype=float), c6)

