"""Strong-dephasing classical engine.

Two routes onto the same rate equation: an exact propagator on the 2^N
probability vector (small N) and an event-driven Gillespie sampler that
advances whole ensembles in lockstep, with pair energies taken from the
atom positions (large 3D gases).  Flip rates follow the Lorentzian form
Gamma_k = omega^2 gamma / ((gamma/2)^2 + mismatch_k^2), with the decay
channel kappa added to every downward flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .model import (AtomNetwork, Configuration, DetuningSchedule, SimParams,
                    basis_bits, pair_energies)
from .propagate import CSR, propagate
from .timeseries import TimeSeries

# Most atoms of the exact engine.  A span's record sums take
# RECORD_POINTS x 2^N doubles.
GENERATOR_CAP = 14
# Trajectories x atoms in one lockstep block: bounds the sampler's memory
# at O(BLOCK_ELEMENTS) for any ensemble size.
BLOCK_ELEMENTS = 2 ** 20
# Atoms per block of the sampler's two-level draw (see `_draw`): a row of
# at most this many atoms is searched flat.
DRAW_BLOCK = 64


class ClassicalEngineError(ValueError):
    pass


def _rates(mismatch: np.ndarray, bits, params: SimParams, out=None):
    """Flip rates: the Lorentzian omega^2 gamma / ((gamma/2)^2 + mismatch^2)
    plus kappa for every excited atom (bits = 1), written into `out` if
    given.  Boolean `bits` are read as they are, with no temporary."""
    out = np.square(mismatch, out=out)
    out += (params.gamma / 2.0) ** 2
    np.divide(params.omega**2 * params.gamma, out, out=out)
    np.add(out, params.kappa, out=out, where=np.asarray(bits, dtype=bool))
    return out


def _flips(n: int) -> np.ndarray:
    """(2^N, N + 1): row s holds s, then s with each single bit flipped."""
    return np.arange(1 << n)[:, None] ^ np.append(0, 1 << np.arange(n))


def classical_generator(network: AtomNetwork, params: SimParams,
                        detunings: np.ndarray | None = None) -> tuple:
    """Rate matrix G over configurations as a `CSR` record, dp/dt = G p
    with columns summing to zero, and the rectangle (lo, hi, b) holding its
    spectrum in Re [lo, hi] x Im [-b, b] (see `propagate.propagate`): with
    d_s = G[s, s] and, per atom k, the rates G[s, s ^ 2^k] into s and
    G[s ^ 2^k, s] out of it, Gershgorin's bounds on G's Hermitian and
    skew-Hermitian parts are d_s -+ sum_k |in + out| / 2 and
    sum_k |in - out| / 2."""
    if params.gamma <= 0:
        raise ClassicalEngineError("classical rates require gamma > 0")
    n = network.n_atoms
    if n > GENERATOR_CAP:
        raise ClassicalEngineError(
            f"N={n} exceeds exact-propagator cap {GENERATOR_CAP}")
    det = network.static_detunings if detunings is None else np.asarray(detunings, float)
    bits = basis_bits(n)
    v = network.interaction_matrix()
    rates = np.column_stack([_rates(det[k] + bits @ v[k], bits[:, k], params)
                             for k in range(n)])
    # row s: the outflow -sum_k rate_k(s) on the diagonal, then the inflow
    # rate_k(s ^ 2^k) from each flip of s, straight into CSR arrays
    cols = _flips(n)
    diag = -rates.sum(axis=1)
    inflow = rates[cols[:, 1:], np.arange(n)]
    data = np.column_stack([diag, inflow])
    g = CSR(np.arange(0, data.size + 1, n + 1, dtype=np.int32),
            cols.astype(np.int32).ravel(), data.ravel())
    herm = np.abs(inflow + rates).sum(axis=1) / 2
    skew = np.abs(inflow - rates).sum(axis=1) / 2
    return g, (float((diag - herm).min()), float((diag + herm).max()),
               float(skew.max()))


def evolve_classical_exact(network: AtomNetwork, params: SimParams,
                           initial: Configuration, t_end: float,
                           schedule: DetuningSchedule = DetuningSchedule(),
                           output_sites=()) -> TimeSeries:
    """Exact propagation of dp/dt = G p from the configuration `initial`
    onto the record grid, rebuilding the generator on each schedule
    segment; normalisation and positivity are checked at every record
    time."""
    n = network.n_atoms
    if len(initial) != n:
        raise ClassicalEngineError("initial configuration length mismatch")
    # refused before the 2^N vector is made, not by classical_generator
    # after it
    if n > GENERATOR_CAP:
        raise ClassicalEngineError(
            f"N={n} exceeds exact-propagator cap {GENERATOR_CAP}")
    p = np.zeros(1 << n)
    p[initial.to_index()] = 1.0
    return propagate(
        p, lambda det: classical_generator(network, params, det),
        schedule.segments(t_end, network.static_detunings),
        "classical-exact", ClassicalEngineError, output_sites)


class NeighborTable:
    """Per-atom neighbor lists with precomputed C6/r^6 interaction energies.

    Pairs whose interaction energy falls below `interaction_floor` are
    dropped.  Stored CSR-style (indptr/indices/energies), symmetric by
    construction.
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


def _waits(rates: np.ndarray, rng) -> np.ndarray:
    """Exponential waiting times at the total rate of each row."""
    total = rates.sum(axis=1)
    if not np.all(total > 0):
        raise ClassicalEngineError("total rate vanished; omega must be > 0")
    return rng.standard_exponential(total.size) * (1.0 / total)


def _draw(c: np.ndarray, rng, out: np.ndarray | None = None) -> np.ndarray:
    """One atom per row of the rates `c`, each drawn in proportion to its
    rate from u = rng.random() * total.  `c` is only read; the flat
    search's cumulative rates go into `out` (c's shape) if given.

    A row of at most DRAW_BLOCK atoms takes the first atom whose
    cumulative rate reaches u.  A longer row is searched on two levels:
    the first block of DRAW_BLOCK atoms whose cumulative block sum reaches
    u, then the first atom of that block whose cumulative rate reaches u
    less the blocks before it.  That is the same partition of [0, total)
    into one interval of each atom's rate, so the distribution is
    unchanged (Gillespie's direct method, with the grouped search of Blue,
    Beichl & Sullivan); only a u within rounding of a cut may fall on the
    other side of it.  Where rounding leaves the block's own cumulative
    rate short of its share of u, the block's last atom with a positive
    rate is taken, which is the atom owning the interval's top."""
    k, n = c.shape
    if n <= DRAW_BLOCK:
        cum = np.cumsum(c, axis=1, out=out)
        return (cum >= (rng.random(k) * cum[:, -1])[:, None]).argmax(axis=1)
    # cumulative block sums after a leading 0: ends[:, b] is what the
    # blocks before block b hold
    ends = np.zeros((k, -(-n // DRAW_BLOCK) + 1))
    np.add.reduceat(c, np.arange(0, n, DRAW_BLOCK), axis=1, out=ends[:, 1:])
    np.cumsum(ends, axis=1, out=ends)
    u = rng.random(k) * ends[:, -1]
    rows = np.arange(k)
    block = (ends[:, 1:] >= u[:, None]).argmax(axis=1)
    u -= ends[rows, block]
    cols = block[:, None] * DRAW_BLOCK + np.arange(DRAW_BLOCK)
    # a partial last block is padded with zero rates
    inner = c[rows[:, None], np.minimum(cols, n - 1)]
    inner[cols >= n] = 0.0
    cum = np.cumsum(inner, axis=1)
    atom = (cum >= u[:, None]).argmax(axis=1)
    short = cum[:, -1] < u
    if short.any():
        atom[short] = DRAW_BLOCK - 1 - (inner[short, ::-1] > 0).argmax(axis=1)
    return cols[rows, atom]


def _gather(order: np.ndarray, arrays, scratch: np.ndarray) -> None:
    """Row order[i] of each of `arrays` into its row i, for i < order.size.
    A float table of `scratch`'s row shape goes through `scratch` (free
    rows), so that none is copied whole."""
    k = order.size
    for a in arrays:
        if a.shape[1:] == scratch.shape[1:] and a.dtype == scratch.dtype:
            # take writes `out` unbuffered in `clip` mode; order is in range
            a[:k] = np.take(a, order, axis=0, out=scratch[:k], mode="clip")
        else:
            a[:k] = a[order]


def _lockstep_block(network: AtomNetwork, params: SimParams,
                    config0: Configuration, schedule: DetuningSchedule,
                    m: int, rng, times: np.ndarray, out: np.ndarray,
                    moments: np.ndarray, flips: np.ndarray | None,
                    log=None):
    """Advance m trajectories from config0 to times[-1] in lockstep.

    Each trajectory holds its occupations, mismatches and the time of its
    pending event.  The trajectories synchronise only at the schedule's
    segment bounds.  At each segment's start (t = 0 the first) the
    mismatches shift with the detunings and every pending event is drawn
    afresh, which is exact for a memoryless process.  Before its end,
    every trajectory whose event comes earlier fires it in one vectorised
    step: the atom is drawn in proportion to its rate, the mismatches move
    by its pair energies and a new wait is drawn.

    A trajectory whose event falls past the segment's end fires no more
    in it, so the firing ones only dwindle.  They are kept as the prefix
    [:k] of the rows, in trajectory order: a step after which some
    trajectory drops out moves the rest forward in a stable partition, and
    each step works in place on views of the prefix.  Every segment starts
    with the rows back in trajectory order, so each step draws from `rng`
    in that order, as one over the firing trajectories' indices would.

    Each event is filed at the first record time after it (every event
    comes before times[-1]), so the state at times[r] is the state after
    every event before it.  A step adds the change of the output count
    (weights `out`) and of its square into the (2, times) `moments`, and,
    unless `flips` is None, its +-1 occupation changes into the (times, N)
    `flips`; a cumulative sum of the start state and these changes gives
    the states.  Every filed value is an integer-valued float, so the
    order of the events does not round the sums.

    Returns the events of each trajectory and the number of event steps.
    `log` collects (time, atom, new_bit) of every event.
    """
    if params.gamma <= 0:
        raise ClassicalEngineError("Gillespie sampling requires gamma > 0")
    n = network.n_atoms
    if len(config0) != n:
        raise ClassicalEngineError("configuration length mismatch")
    bits0 = config0.as_array()
    pairs0 = pair_energies(network, np.flatnonzero(bits0)).sum(axis=0)
    bits, mism = np.tile(bits0 > 0, (m, 1)), np.tile(pairs0, (m, 1))
    # detunings the mismatches hold; each segment shifts them to its own
    det = 0.0
    # rates, which a step's pair energies take as workspace once the atoms
    # are drawn; the pair energies, and the scratch of the draw and of
    # every reordering of the rows
    rates, pairs = np.empty((m, n)), np.empty((m, n))
    # row i holds trajectory traj[i], with its events and output count
    traj, rows = np.arange(m), np.arange(m)
    events = np.zeros(m, dtype=np.int64)
    counts = np.full(m, float(bits0 @ out))
    steps = 0
    for start, stop, new_det in schedule.segments(times[-1],
                                                   network.static_detunings):
        # back in trajectory order, in which the new waits are drawn
        _gather(np.argsort(traj), (bits, mism, counts, events, traj), rates)
        mism += new_det - det
        det = new_det
        _rates(mism, bits, params, out=rates)
        pending = start + _waits(rates, rng)
        k = m
        while True:
            live = pending[:k] < stop
            if not live.all():
                # a stable partition: the live rows first, in their order
                order = np.argsort(~live, kind="stable")
                _gather(order, (bits, mism, counts, events, traj), pairs)
                k = int(np.count_nonzero(live))
                _gather(order[:k], (rates, pending), pairs)
                if not k:
                    break
            c = rates[:k]
            atom = _draw(c, rng, out=pairs[:k])
            at_atom = rows[:k], atom
            new = ~bits[at_atom]
            bits[at_atom] = new
            sign = 2.0 * new - 1.0
            mism[:k] += pair_energies(network, atom, out=pairs[:k], work=c,
                                      sign=sign)
            _rates(mism[:k], bits[:k], params, out=c)
            tau = pending[:k]
            at = np.searchsorted(times, tau, side="right")
            if flips is not None:
                # ufunc.at's fast path takes one flat index
                np.add.at(flips.reshape(-1), at * n + atom, sign)
            delta = sign * out[atom]
            np.add.at(moments[0], at, delta)
            np.add.at(moments[1], at, delta * (2.0 * counts[:k] + delta))
            counts[:k] += delta
            if log is not None:
                log += zip(tau.tolist(), atom.tolist(),
                           new.astype(int).tolist())
            pending[:k] += _waits(c, rng)
            events[:k] += 1
            steps += 1
    return events[np.argsort(traj)], steps


def gillespie_run(network: AtomNetwork, params: SimParams,
                  config0: Configuration, t_end: float, seed,
                  schedule: DetuningSchedule = DetuningSchedule()
                  ) -> Trajectory:
    """Exact event-driven sampling of the classical rate equation: one
    trajectory of the lockstep sampler, drawing from default_rng(seed),
    with its event log.

    Waiting times are exponential in the current total rate; the flipped
    atom is drawn proportionally to its rate.  Piecewise constant
    schedules resample the pending event at each breakpoint.
    """
    events = []
    _lockstep_block(network, params, config0, schedule, 1,
                    default_rng(seed), np.array([float(t_end)]),
                    np.zeros(network.n_atoms), np.zeros((2, 1)), None,
                    log=events)
    return Trajectory(config0, events, float(t_end))


def _ensemble_series(times: np.ndarray, dens_sum: np.ndarray | None,
                     no_sum: np.ndarray, no_sq: np.ndarray, m: int,
                     sites: np.ndarray) -> TimeSeries:
    """Ensemble means from sums over m trajectories, with the standard
    error of the output count.  The site densities are dens_sum divided in
    place; without dens_sum the series has no site columns."""
    mean_no = no_sum / m
    if m > 1:
        var = np.maximum(no_sq / m - mean_no**2, 0.0) * m / (m - 1)
        stderr = np.sqrt(var / m)
    else:
        stderr = np.zeros_like(mean_no)
    dens = (np.empty((times.size, 0)) if dens_sum is None
            else np.divide(dens_sum, m, out=dens_sum))
    return TimeSeries(times, dens, mean_no, stderr,
                      metadata={"engine": "kmc", "n_trajectories": m,
                                "output_sites": [int(s) for s in sites]})


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
        bits = traj.initial.as_array()
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
    return _ensemble_series(times, dens_sum, no_sum, no_sq, len(trajectories),
                            sites)


def gillespie_ensemble(network: AtomNetwork, params: SimParams,
                       config0: Configuration, n_trajectories: int,
                       master_seed: int, times: np.ndarray, output_sites,
                       schedule: DetuningSchedule = DetuningSchedule(),
                       site_density: bool = True) -> TimeSeries:
    """Mean per-site density and output count of an ensemble sampled up to
    times[-1], on `times`, with the standard error of the output count.
    Without `site_density` no per-site sums are kept and the series has no
    site columns; the output count and its error are the same bits either
    way.

    Trajectories advance in lockstep blocks of at most BLOCK_ELEMENTS // N;
    block b draws from stream (master_seed, b), so a seed, ensemble size
    and atom count always give the same result.  Every block files its
    events into the ensemble's one set of sums.  The metadata counts the
    blocks, the event steps and the events per trajectory (mean and max).
    """
    if n_trajectories < 1:
        raise ClassicalEngineError("empty trajectory ensemble")
    times = np.asarray(times, dtype=float)
    # an event is filed at the first record time after it, which only an
    # increasing grid from t >= 0 on gives
    if (times.ndim != 1 or not times.size or not times[0] >= 0
            or not np.all(times[1:] > times[:-1])):
        raise ClassicalEngineError(
            "record times must be strictly increasing from t >= 0")
    n = network.n_atoms
    sites = np.asarray(list(output_sites), dtype=int)
    out = np.zeros(n)
    out[sites] = 1.0
    moments = np.zeros((2, times.size))
    dens = np.zeros((times.size, n)) if site_density else None
    block = max(1, BLOCK_ELEMENTS // n)
    offsets = range(0, n_trajectories, block)
    events, steps = [], 0
    for b, start in enumerate(offsets):
        block_events, block_steps = _lockstep_block(
            network, params, config0, schedule,
            min(block, n_trajectories - start), default_rng([master_seed, b]),
            times, out, moments, dens)
        events.append(block_events)
        steps += block_steps
    # the start state, then one cumulative sum turns changes into states
    bits0 = config0.as_array()
    count0 = float(bits0 @ out)
    moments[:, 0] += n_trajectories * count0, n_trajectories * count0**2
    np.cumsum(moments, axis=1, out=moments)
    if dens is not None:
        dens[0] += n_trajectories * bits0
        np.cumsum(dens, axis=0, out=dens)
    events = np.concatenate(events)
    ts = _ensemble_series(times, dens, *moments, n_trajectories, sites)
    ts.metadata.update(master_seed=master_seed,
                       events_mean=float(events.mean()),
                       events_max=int(events.max()), blocks=len(offsets),
                       steps=steps)
    return ts
