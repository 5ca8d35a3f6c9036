"""Shared propagator of both exact engines: x' = A x with A constant
between schedule breakpoints, sampled on the record grid by truncated
Taylor series of exp(tau A) x (Al-Mohy & Higham, SIAM J. Sci. Comput.
33:488, 2011) that need only products A @ x with a scipy.sparse A.

One expansion serves every record time of a span: its terms
v_j = (hA)^j x / j! give exp(tau A) x = sum_j (tau/h)^j v_j for all
tau <= h, so the span's length, not the record spacing, sets the work.
"""

from __future__ import annotations

import numpy as np

from .model import basis_bits
from .timeseries import TimeSeries

RECORD_POINTS = 200
TOL = 2.0 ** -53
# Largest residuals allowed at a record time (the thresholds of `validate`).
LIMITS = {"norm_drift": 1e-6, "negativity": 1e-8, "hermiticity": 1e-8}
# Entries of the record-time sums one span keeps: bounds the accumulators'
# memory at O(SPAN_ELEMENTS) plus one vector, whatever the record spacing.
SPAN_ELEMENTS = 2 ** 22

# theta_m: a degree-m Taylor step of 1-norm <= theta_m has backward error
# below 2^-53 (Higham, Functions of Matrices, Table A.3, for m <= 30;
# Al-Mohy & Higham 2011, Table 3.1, above).
THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
         6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
         11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
         16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62,
         22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86,
         28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5,
         55: 9.9}
DEGREES, BOUNDS = np.array(list(THETA)), np.array(list(THETA.values()))


def _span(a, x: np.ndarray, taus: np.ndarray, norm: float, tol: float):
    """exp(tau a) @ x for every tau of `taus` (ascending, the last one the
    span length h, with h * norm <= theta_55), and the number of products.

    The degree is the smallest m with theta_m >= h * norm, so the series is
    accurate at every tau <= h.  It stops once two successive terms at
    tau = h fall below tol of the partial sum there."""
    h = taus[-1]
    m = DEGREES[min(np.searchsorted(BOUNDS, h * norm), DEGREES.size - 1)]
    ratio = taus / h
    sums = np.tile(x, (taus.size, 1))
    term, weight = x, np.ones(taus.size)
    last = np.abs(x).max()
    for j in range(1, m + 1):
        term = a @ term
        term *= h / j
        weight *= ratio
        sums += weight[:, None] * term
        size = np.abs(term).max()
        if last + size <= tol * np.abs(sums[-1]).max():
            break
        last = size
    return sums, j


def propagate(x: np.ndarray, build, t_end: float, engine: str, error,
              output_sites=(), breakpoints=(), tol: float = TOL,
              observe=lambda x: (x, {})) -> TimeSeries:
    """Advance x' = A x from t = 0 onto the RECORD_POINTS grid up to t_end:
    the `engine`'s TimeSeries of per-site densities, with x at t_end as
    `final_state`.  A changes only at `breakpoints`; build(t0) returns it
    for the segment starting at t0.  `tol` truncates the series.

    Each segment is walked in spans of 1-norm at most theta_55, each ending
    early at the segment's end or at its SPAN_ELEMENTS // x.size-th record
    time; one expansion per span gives x at the span's record times and
    end.  The metadata counts the spans and the products A @ x.

    At each record time observe(x) returns the 2^N basis populations and
    any residuals besides their normalisation drift and negativity.  A
    residual not below its LIMITS entry raises `error`; the largest of
    each goes to the metadata.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    times = np.linspace(0.0, t_end, RECORD_POINTS)
    edges = np.union1d([0.0, t_end],
                       [b for b in breakpoints if 0.0 < b < t_end])
    most = max(1, SPAN_ELEMENTS // x.size)
    worst, dens = {}, []

    def record(t, y):
        pop, residuals = observe(y)
        residuals.update(norm_drift=abs(pop.sum() - 1.0),
                         negativity=-pop.min())
        if not all(value < LIMITS[key] for key, value in residuals.items()):
            raise error(f"at t={t:.3f}: " + ", ".join(
                f"{key} {value:.1e}" for key, value in residuals.items()))
        for key, value in residuals.items():
            worst[key] = max(worst.get(key, 0.0), float(value))
        dens.append(pop @ basis_bits(pop.size.bit_length() - 1))

    record(0.0, x)
    rec, products, spans = 1, 0, 0
    for t, end in zip(edges[:-1], edges[1:]):
        a = build(t).tocsr()
        norm = float(np.bincount(a.indices, np.abs(a.data), a.shape[1]).max())
        while t < end:
            stop = min(end, t + BOUNDS[-1] / norm if norm else end,
                       times[min(rec + most, RECORD_POINTS) - 1])
            inside = np.searchsorted(times, stop, side="right") - rec
            taus = times[rec:rec + inside] - t
            if not inside or times[rec + inside - 1] != stop:
                taus = np.append(taus, stop - t)
            sums, used = _span(a, x, taus, norm, tol)
            products, spans = products + used, spans + 1
            for y in sums[:inside]:
                record(times[rec], y)
                rec += 1
            # free the sums before the next span allocates its own
            x, t = sums[-1].copy(), stop
            del sums
    dens = np.array(dens)
    sites = np.asarray(list(output_sites), dtype=int)
    ts = TimeSeries(times, dens, dens[:, sites].sum(axis=1),
                    metadata={"engine": engine, **worst,
                              "output_sites": [int(s) for s in sites],
                              "products": products, "spans": spans})
    ts.final_state = x
    return ts
