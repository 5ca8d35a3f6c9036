"""Strong-dephasing classical engine.

Two routes onto the same rate equation: an exact propagator on the 2^N
probability vector (small N) and an event-driven Gillespie sampler whose
rate cache is updated incrementally through a cutoff neighbor table
(large 3D gases).  Flip rates follow the Lorentzian form
Gamma_k = omega^2 gamma / ((gamma/2)^2 + mismatch_k^2), with the decay
channel kappa added to every downward flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (AtomNetwork, Configuration, DetuningSchedule, SimParams,
                    basis_bits, local_mismatch)
from .propagate import propagate
from .timeseries import TimeSeries

GENERATOR_CAP = 14


class ClassicalEngineError(ValueError):
    pass


def _rates(mismatch: np.ndarray, bits, params: SimParams):
    """Flip rates: the Lorentzian omega^2 gamma / ((gamma/2)^2 + mismatch^2)
    plus kappa for every excited atom (bits = 1)."""
    return (params.omega**2 * params.gamma
            / ((params.gamma / 2.0) ** 2 + mismatch**2) + params.kappa * bits)


def transition_rate(k: int, config: Configuration, network: AtomNetwork,
                    params: SimParams,
                    detunings: np.ndarray | None = None) -> float:
    """Coherent flip rate of atom k in the given configuration (the decay
    channel is not included)."""
    if params.gamma <= 0:
        raise ClassicalEngineError("classical rates require gamma > 0")
    return float(_rates(local_mismatch(k, config, network, detunings), 0.0,
                        params))


def classical_generator(network: AtomNetwork, params: SimParams,
                        detunings: np.ndarray | None = None) -> sp.csr_matrix:
    """Rate matrix G over configurations: dp/dt = G p, columns sum to zero."""
    if params.gamma <= 0:
        raise ClassicalEngineError("classical rates require gamma > 0")
    n = network.n_atoms
    if n > GENERATOR_CAP:
        raise ClassicalEngineError(
            f"N={n} exceeds exact-propagator cap {GENERATOR_CAP}")
    det = network.static_detunings if detunings is None else np.asarray(detunings, float)
    bits = basis_bits(n)
    v = network.interaction_matrix()
    # column c: outflow -sum_k rate_k(c) on the diagonal, rate_k(c) to c ^ 2^k
    rates = np.column_stack([_rates(det[k] + bits @ v[k], bits[:, k], params)
                             for k in range(n)])
    rows = np.arange(1 << n)[:, None] ^ np.array([0, *(1 << np.arange(n))])
    data = np.column_stack([-rates.sum(axis=1), rates])
    return sp.csc_matrix((data.ravel(), rows.ravel(),
                          np.arange(0, data.size + 1, n + 1)),
                         shape=(1 << n, 1 << n)).tocsr()


def probability_from_configuration(config: Configuration) -> np.ndarray:
    p = np.zeros(1 << len(config))
    p[config.to_index()] = 1.0
    return p


def evolve_classical_exact(p0: np.ndarray, generator, t_end: float,
                           output_sites=(), breakpoints=()) -> TimeSeries:
    """Exact propagation of dp/dt = G p onto the record grid, checking
    normalisation and positivity at every record time.  `generator` is G,
    or a function of a segment's start time returning G on that segment
    when G changes at `breakpoints`."""
    p = np.asarray(p0, dtype=float)
    n = p.size.bit_length() - 1
    if 1 << n != p.size:
        raise ClassicalEngineError("probability vector length must be 2^N")
    if abs(p.sum() - 1.0) > 1e-12 or p.min() < 0:
        raise ClassicalEngineError("p0 must be a normalized probability vector")
    build = generator if callable(generator) else lambda t0: generator
    return propagate(p, build, t_end, "classical-exact", ClassicalEngineError,
                     output_sites, breakpoints)


def evolve_classical(network: AtomNetwork, params: SimParams,
                     initial: Configuration, t_end: float,
                     schedule: DetuningSchedule | None = None,
                     output_sites=()) -> TimeSeries:
    """Exact classical evolution of a device, rebuilding the generator at
    schedule breakpoints."""
    schedule = schedule or DetuningSchedule()
    static = network.static_detunings
    return evolve_classical_exact(
        probability_from_configuration(initial),
        lambda t0: classical_generator(network, params,
                                       schedule.detunings_at(t0, static)),
        t_end, output_sites, schedule.breakpoints())


class NeighborTable:
    """Per-atom neighbor lists with precomputed C6/r^6 interaction energies.

    Pairs whose interaction energy falls below `interaction_floor` are
    dropped; by default the floor is gamma/100, far below the linewidth.
    Stored CSR-style (indptr/indices/energies), symmetric by construction.
    """

    def __init__(self, network: AtomNetwork, interaction_floor: float):
        if interaction_floor <= 0:
            raise ClassicalEngineError("interaction_floor must be positive")
        self.interaction_floor = float(interaction_floor)
        self.cutoff = (network.c6 / interaction_floor) ** (1.0 / 6.0)
        v = network.interaction_matrix()
        mask = v > interaction_floor
        n = network.n_atoms
        indptr = np.zeros(n + 1, dtype=np.int64)
        idx_list, en_list = [], []
        for i in range(n):
            cols = np.nonzero(mask[i])[0]
            idx_list.append(cols.astype(np.int32))
            en_list.append(v[i, cols])
            indptr[i + 1] = indptr[i] + cols.size
        self.indptr = indptr
        self.indices = (np.concatenate(idx_list) if idx_list else
                        np.empty(0, np.int32))
        self.energies = (np.concatenate(en_list) if en_list else
                         np.empty(0, float))

    def neighbors(self, k: int):
        lo, hi = self.indptr[k], self.indptr[k + 1]
        return self.indices[lo:hi], self.energies[lo:hi]

    @classmethod
    def for_params(cls, network: AtomNetwork, params: SimParams,
                   floor_fraction: float = 0.01) -> "NeighborTable":
        return cls(network, floor_fraction * params.gamma)


@dataclass
class Trajectory:
    """One kinetic Monte Carlo realization: initial configuration plus an
    ordered list of (time, atom, new_bit) flip events."""

    initial: Configuration
    events: list
    t_end: float

    def __post_init__(self):
        last = 0.0
        for t, _, _ in self.events:
            if t <= last:
                raise ClassicalEngineError("event times must be increasing")
            last = t

    def occupation_at(self, t: float) -> np.ndarray:
        bits = self.initial.as_array().astype(np.int64)
        for et, atom, new_bit in self.events:
            if et > t:
                break
            bits[atom] = new_bit
        return bits


def gillespie_run(network: AtomNetwork, params: SimParams,
                  config0: Configuration, t_end: float, seed,
                  table: NeighborTable | None = None,
                  schedule: DetuningSchedule | None = None) -> Trajectory:
    """Exact event-driven sampling of the classical rate equation.

    Waiting times are exponential in the current total rate; the flipped
    atom is drawn proportionally to its rate.  After each event only the
    flipped atom's neighbors have their mismatch updated.  Piecewise
    constant schedules cap each waiting time at the next breakpoint and
    resample there.
    """
    if params.gamma <= 0:
        raise ClassicalEngineError("Gillespie sampling requires gamma > 0")
    n = network.n_atoms
    if len(config0) != n:
        raise ClassicalEngineError("configuration length mismatch")
    if table is None:
        table = NeighborTable.for_params(network, params)
    rng = np.random.default_rng(seed)
    static = network.static_detunings
    schedule = schedule or DetuningSchedule()
    bp_iter = iter([*(float(b) for b in schedule.breakpoints()
                      if 0.0 < b < t_end), float(t_end)])

    bits = config0.as_array().astype(np.float64)
    det = schedule.detunings_at(0.0, static)
    # mismatch of every atom against the current configuration
    mism = det.copy()
    for k in np.nonzero(bits)[0]:
        nbr, en = table.neighbors(int(k))
        mism[nbr] += en

    events = []
    t = 0.0
    next_bp = next(bp_iter)
    while True:
        rates = _rates(mism, bits, params)
        total = rates.sum()
        if total <= 0:
            raise ClassicalEngineError("total rate vanished; omega must be > 0")
        t_next = t + rng.exponential(1.0 / total)
        if t_next >= next_bp:
            # no event before the breakpoint: advance and resample
            t = next_bp
            if t >= t_end:
                break
            old = det
            det = schedule.detunings_at(t, static)
            mism += det - old
            next_bp = next(bp_iter)
            continue
        t = t_next
        cum = np.cumsum(rates)
        a = int(np.searchsorted(cum, rng.uniform(0.0, cum[-1])))
        new_bit = 1.0 - bits[a]
        bits[a] = new_bit
        nbr, en = table.neighbors(a)
        if new_bit:
            mism[nbr] += en
        else:
            mism[nbr] -= en
        events.append((t, a, int(new_bit)))
    return Trajectory(config0, events, float(t_end))


def ensemble_average(trajectories, times: np.ndarray, output_sites,
                     n_atoms: int) -> TimeSeries:
    """Mean per-site density and output count over a trajectory ensemble,
    with the standard error of the output count."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ClassicalEngineError("empty trajectory ensemble")
    times = np.asarray(times, dtype=float)
    out_mask = np.zeros(n_atoms, dtype=bool)
    sites = np.asarray(list(output_sites), dtype=int)
    out_mask[sites] = True

    dens_sum = np.zeros((times.size, n_atoms))
    no_sum = np.zeros(times.size)
    no_sq = np.zeros(times.size)
    for traj in trajectories:
        if traj.t_end < times[-1]:
            raise ClassicalEngineError("trajectory shorter than time grid")
        bits = traj.initial.as_array().astype(float)
        no_traj = np.empty(times.size)
        gi = 0
        for et, atom, new_bit in traj.events:
            while gi < times.size and times[gi] < et:
                dens_sum[gi] += bits
                no_traj[gi] = bits[out_mask].sum()
                gi += 1
            bits[atom] = new_bit
        while gi < times.size:
            dens_sum[gi] += bits
            no_traj[gi] = bits[out_mask].sum()
            gi += 1
        no_sum += no_traj
        no_sq += no_traj**2
    m = len(trajectories)
    mean_no = no_sum / m
    if m > 1:
        var = np.maximum(no_sq / m - mean_no**2, 0.0) * m / (m - 1)
        stderr = np.sqrt(var / m)
    else:
        stderr = np.zeros_like(mean_no)
    return TimeSeries(times, dens_sum / m, mean_no, stderr,
                      metadata={"engine": "kmc", "n_trajectories": m,
                                "output_sites": [int(s) for s in sites]})


def gillespie_ensemble(network: AtomNetwork, params: SimParams,
                       config0: Configuration, t_end: float,
                       n_trajectories: int, master_seed: int,
                       times: np.ndarray, output_sites,
                       table: NeighborTable | None = None,
                       schedule: DetuningSchedule | None = None) -> TimeSeries:
    """Run a reproducible ensemble; trajectory i uses stream
    (master_seed, i) so results are independent of scheduling order."""
    if table is None:
        table = NeighborTable.for_params(network, params)
    trajs = [gillespie_run(network, params, config0, t_end,
                           seed=[master_seed, i], table=table,
                           schedule=schedule)
             for i in range(n_trajectories)]
    ts = ensemble_average(trajs, times, output_sites, network.n_atoms)
    ts.metadata["master_seed"] = master_seed
    return ts
