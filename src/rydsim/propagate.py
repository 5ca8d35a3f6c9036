"""Shared propagator of both exact engines: x' = A x with A constant
between schedule breakpoints, sampled on the record grid by exp(hA) x as a
scaled, truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput.
33:488, 2011) that needs only products A @ x with a scipy.sparse A.
"""

from __future__ import annotations

import numpy as np

from .model import basis_bits
from .timeseries import TimeSeries

RECORD_POINTS = 200
TOL = 2.0 ** -53
# Largest residuals allowed at a record time (the thresholds of `validate`).
LIMITS = {"norm_drift": 1e-6, "negativity": 1e-8, "hermiticity": 1e-8}

# theta_m: a degree-m Taylor substep of 1-norm <= theta_m has backward
# error below 2^-53 (Higham, Functions of Matrices, Table A.3, for m <= 30;
# Al-Mohy & Higham 2011, Table 3.1, above).
THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
         6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
         11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
         16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62,
         22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86,
         28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5,
         55: 9.9}
DEGREES, BOUNDS = np.array(list(THETA)), np.array(list(THETA.values()))


def expm_action(a, x: np.ndarray, h: float, norm: float,
                tol: float = TOL) -> np.ndarray:
    """exp(h a) @ x for a of 1-norm `norm`, in the s substeps of degree <= m
    with the fewest products m * s that keep each substep's 1-norm within
    theta_m.  A substep's series stops once two successive terms fall below
    tol of the partial sum."""
    steps = np.maximum(1, np.ceil(h * norm / BOUNDS))
    best = int(np.argmin(DEGREES * steps))
    m, s = int(DEGREES[best]), int(steps[best])
    for _ in range(s):
        total, term = x.copy(), x
        last = np.abs(x).max()
        for j in range(1, m + 1):
            term = a @ term
            term *= h / (s * j)
            total += term
            size = np.abs(term).max()
            if last + size <= tol * np.abs(total).max():
                break
            last = size
        x = total
    return x


def propagate(x: np.ndarray, build, t_end: float, engine: str, error,
              output_sites=(), breakpoints=(), tol: float = TOL,
              observe=lambda x: (x, {})) -> TimeSeries:
    """Advance x' = A x from t = 0 onto the RECORD_POINTS grid up to t_end:
    the `engine`'s TimeSeries of per-site densities, with x at t_end as
    `final_state`.  A changes only at `breakpoints`; build(t0) returns it
    for the segment starting at t0.  `tol` truncates the series.

    At each record time observe(x) returns the 2^N basis populations and
    any residuals besides their normalisation drift and negativity.  A
    residual not below its LIMITS entry raises `error`; the largest of
    each goes to the metadata.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    times = np.linspace(0.0, t_end, RECORD_POINTS)
    starts = {0.0, *(float(b) for b in breakpoints if 0.0 < b < t_end)}
    worst, dens, t = {}, [], 0.0
    for stop in np.union1d(times, sorted(starts)):
        if stop > t:
            x, t = expm_action(a, x, stop - t, norm, tol), stop
        if stop in starts:
            a = build(stop).tocsr()
            norm = float(np.bincount(a.indices, np.abs(a.data),
                                     a.shape[1]).max())
        if stop in times:
            pop, residuals = observe(x)
            residuals.update(norm_drift=abs(pop.sum() - 1.0),
                             negativity=-pop.min())
            if not all(value < LIMITS[key] for key, value in residuals.items()):
                raise error(f"at t={stop:.3f}: " + ", ".join(
                    f"{key} {value:.1e}" for key, value in residuals.items()))
            for key, value in residuals.items():
                worst[key] = max(worst.get(key, 0.0), float(value))
            dens.append(pop @ basis_bits(pop.size.bit_length() - 1))
    dens = np.array(dens)
    sites = np.asarray(list(output_sites), dtype=int)
    ts = TimeSeries(times, dens, dens[:, sites].sum(axis=1),
                    metadata={"engine": engine, **worst,
                              "output_sites": [int(s) for s in sites]})
    ts.final_state = x
    return ts
