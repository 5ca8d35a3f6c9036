"""Time-series results: per-site excitation densities, output excitation
count and run metadata, with CSV export and the config hash."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .model import InputError


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-serializable config dict."""
    blob = json.dumps(config, sort_keys=True, allow_nan=False).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_csv(path, header: list, rows: list) -> None:
    """Write `header` and `rows` as CSV: numbers with 9 significant digits
    (as f"{x:.9g}"), strings as they are.  One format string, taken from
    the first row's types, formats every row."""
    line = ",".join("%s" if isinstance(x, str) else "%.9g"
                    for x in rows[0]) + "\n" if rows else ""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([line % tuple(row) for row in rows]))


@dataclass
class TimeSeries:
    """Observables on a strictly increasing time grid.

    site_density has shape (n_times, n_sites); output_count is the summed
    density over the device's output sites.
    """

    times: np.ndarray
    site_density: np.ndarray
    output_count: np.ndarray
    output_stderr: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.site_density = np.atleast_2d(np.asarray(self.site_density, dtype=float))
        self.output_count = np.asarray(self.output_count, dtype=float)
        if self.site_density.shape[0] != self.times.size:
            raise InputError("site_density rows must match time grid")
        if self.output_count.shape != self.times.shape:
            raise InputError("output_count must match time grid")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise InputError("times must be strictly increasing")

    @property
    def n_sites(self) -> int:
        return self.site_density.shape[1]

    def value_at(self, t: float) -> float:
        """Output count linearly interpolated at time t (t within range)."""
        if t < self.times[0] or t > self.times[-1]:
            raise InputError(f"t={t} outside recorded range")
        return float(np.interp(t, self.times, self.output_count))

    def resample(self, times: np.ndarray) -> "TimeSeries":
        """Linear-interpolation resample onto a new grid within range."""
        times = np.asarray(times, dtype=float)
        dens = np.empty((times.size, self.n_sites))
        for j in range(self.n_sites):
            dens[:, j] = np.interp(times, self.times, self.site_density[:, j])
        out = np.interp(times, self.times, self.output_count)
        err = None
        if self.output_stderr is not None:
            err = np.interp(times, self.times, self.output_stderr)
        return TimeSeries(times, dens, out, err, dict(self.metadata))

    def to_csv(self, path) -> None:
        """Write `t, site_0..site_{N-1}, N_o[, N_o_stderr]` with 9 significant
        digits."""
        cols = [self.times] + [self.site_density[:, j] for j in range(self.n_sites)]
        cols.append(self.output_count)
        header = ["t"] + [f"site_{j}" for j in range(self.n_sites)] + ["N_o"]
        if self.output_stderr is not None:
            cols.append(self.output_stderr)
            header.append("N_o_stderr")
        write_csv(path, header, np.column_stack(cols).tolist())
