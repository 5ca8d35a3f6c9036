"""Shared propagator of both exact engines: x' = A x with a real A constant
between schedule breakpoints, sampled on the record grid by Chebyshev
series of exp(tau A) x (Tal-Ezer & Kosloff, J. Chem. Phys. 81:3967, 1984)
that need only products A @ x with a real scipy.sparse A.  Let the
rectangle Re [lo, hi] x Im [-b, b] hold A's spectrum, with centre
c = (lo + hi) / 2 and half-widths a = (hi - lo) / 2 and b.  If a >= b,
with W = (A - c) / a,

    exp(tau A) x = e^{c tau} sum_k (2 - delta_k0) I_k(tau a) T_k(W) x;

else, with B = (A - c) / b, T_k(-iB) = (-i)^k U_k and i^k J_k = I_k(i tau b)
make the series real (Kosloff, Annu. Rev. Phys. Chem. 45:145, 1994):

    exp(tau A) x = e^{c tau} sum_k (2 - delta_k0) J_k(tau b) U_k x,
    U_0 = 1, U_1 = B, U_{k+1} = 2 B U_k + U_{k-1}.

The terms do not depend on tau, so one series per span serves every
record time inside it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import basis_bits
from .timeseries import TimeSeries

RECORD_POINTS = 200
TOL = 2.0 ** -53
# Largest residuals allowed: at a record time (the thresholds of
# `validate`), and of a segment's generator, whose population column sums
# change the norm at most that fast.  The default runs' largest column sum
# is 3.5e-15 (classical generator; 3.5e-18 for the quantum one).
LIMITS = {"norm_drift": 1e-6, "negativity": 1e-8, "trace_leak": 1e-10}
# Entries of the record-time sums one span keeps (64 MB): bounds the
# accumulators' memory at O(SPAN_ELEMENTS) plus one vector, whatever the
# record spacing.
SPAN_ELEMENTS = 2 ** 23
# Most terms of one span's series: on the imaginary axis a series needs ~30
# terms beyond tau max(a, b), so longer spans save few products, while each
# record sum takes more of them.
DEGREE = 80
# Terms built between two flushes into the record sums, and the entries of
# the buffer a flush goes through (at least CHUNK rows).
CHUNK = 8
FLUSH_ELEMENTS = 2 ** 15
# Candidate span lengths tau max(a, b) when a segment starts, longest
# first.
REACH = DEGREE * 2.0 ** (-np.arange(320) / 16)


def bendixson(a) -> tuple:
    """(lo, hi, b): Gershgorin bounds on the Hermitian and skew-Hermitian
    parts of sparse `a`, which hold its spectrum in Re [lo, hi] x
    Im [-b, b].  Forms a's transpose: for small `a` only."""
    diag = a.diagonal()
    off = a - sp.diags(diag)
    herm = np.asarray(abs(off + off.conj().T).sum(axis=1)).ravel() / 2
    skew = np.asarray(abs(off - off.conj().T).sum(axis=1)).ravel() / 2
    return (float((diag.real - herm).min()), float((diag.real + herm).max()),
            float((np.abs(diag.imag) + skew).max()))


def _bessel(x: np.ndarray, real: bool, terms: int) -> np.ndarray:
    """(x.size, terms): (2 - delta_k0) e^-x I_k(x) if `real`, else
    (2 - delta_k0) J_k(x), by backward recurrence of the ratios c_k / c_{k-1}
    (Miller), which cannot overflow at small x, normalised by
    sum_k (2 - delta_k0) e^-x I_k(x) = 1 or J_0^2 + 2 sum_k J_k^2 = 1."""
    sign = 1.0 if real else -1.0
    half = 0.5 * np.asarray(x, dtype=float)
    ratios = np.ones((terms, half.size))
    r = np.zeros(half.size)
    with np.errstate(divide="ignore"):
        for k in range(terms + 20, 0, -1):
            den = k / half + sign * r
            # den is 0 only where J_{k-1}(x) is
            r = 1.0 / np.where(den == 0.0, 1e-300, den)
            if k < terms:
                ratios[k] = r
    c = np.cumprod(ratios, axis=0)
    if real:
        c[1:] *= 2.0
        return (c / c.sum(axis=0)).T
    c /= np.abs(c).max(axis=0)
    norm = np.sqrt(c[0] ** 2 + 2.0 * (c[1:] ** 2).sum(axis=0))
    c[1:] *= 2.0
    # J_0 + 2 sum_k J_2k = 1 fixes the sign
    return (c * (np.sign(c[::2].sum(axis=0)) / norm)).T


class _Series:
    """The Chebyshev series of exp(tau A) on one segment's rectangle."""

    def __init__(self, rect, tol: float):
        lo, self.hi, b = rect
        self.c, a = (lo + self.hi) / 2, (self.hi - lo) / 2
        self.real, self.tol = a >= b, tol
        # f: the long half-width; U_{k+1} = 2 (A - c) / f U_k -+ U_{k-1}
        self.f, short = (a, b) if self.real else (b, a)
        self.step = np.subtract if self.real else np.add
        # the terms grow as rho^k at the ends of the short axis
        s = short / self.f if self.f else 0.0
        self.rho = s + np.hypot(1.0, s)
        # e^{shift tau} times the Bessel table is the series' coefficients
        self.shift = self.c + self.f if self.real else self.c
        self.reach = np.inf
        if self.f:
            w = self.weights(REACH / self.f, DEGREE + 32)[1]
            ok = w[:, DEGREE:].sum(axis=1) < tol
            self.reach = REACH[np.argmax(ok) if ok.any() else -1] / self.f

    def weights(self, taus: np.ndarray, terms: int):
        """The Bessel table at taus, and |c_k| rho^k against the size
        e^{tau hi} of the result."""
        table = _bessel(taus * self.f, self.real, terms)
        return table, (np.abs(table) * self.rho ** np.arange(terms)
                       * np.exp((self.shift - self.hi) * taus)[:, None])

    def span(self, a, x: np.ndarray, taus: np.ndarray):
        """exp(tau a) @ x for every tau of `taus` (ascending, the last one
        at most `reach`), and the number of products.  Each record keeps
        the terms until the rest of its weights falls below tol; the terms
        go into the record sums CHUNK at a time, by matrix products."""
        table, w = self.weights(taus, DEGREE)
        tail = np.cumsum(w[:, ::-1], axis=1)[:, ::-1] >= self.tol
        need = np.maximum.accumulate(np.maximum(tail.sum(axis=1), 1))
        terms = int(need[-1])
        coef = table[:, :terms] * np.exp(self.shift * taus)[:, None]
        rows = max(3, min(CHUNK, SPAN_ELEMENTS // x.size))
        group = max(rows, FLUSH_ELEMENTS // x.size)
        block = np.empty((min(rows, terms), x.size))
        part = np.empty((min(group, taus.size), x.size))
        sums = np.zeros((taus.size, x.size))
        block[0] = x
        for k in range(terms):
            if k:
                cur, new = block[(k - 1) % rows], block[k % rows]
                np.multiply(a @ cur - self.c * cur, (1 + (k > 1)) / self.f,
                            out=new)
                if k > 1:
                    self.step(new, block[(k - 2) % rows], out=new)
            if k % rows == rows - 1 or k == terms - 1:
                start = k - k % rows
                for i in range(np.searchsorted(need, start, side="right"),
                               taus.size, group):
                    sums[i:i + group] += np.matmul(
                        coef[i:i + group, start:k + 1], block[:k + 1 - start],
                        out=part[:min(group, taus.size - i)])
        return sums, terms - 1


def propagate(x: np.ndarray, build, t_end: float, engine: str, error,
              output_sites=(), breakpoints=(), tol: float = TOL,
              populations=slice(None)) -> TimeSeries:
    """Advance x' = A x from t = 0 onto the RECORD_POINTS grid up to t_end:
    the `engine`'s TimeSeries of per-site densities, with x at t_end as
    `final_state`.  A changes only at `breakpoints`; build(t0) returns it
    for the segment starting at t0, with its rectangle (lo, hi, b) (see
    `bendixson`).  `tol` truncates the series.

    Each segment is walked in spans, each ending at the first of: the
    longest length whose series stays within DEGREE terms, the segment's
    end, and its SPAN_ELEMENTS // x.size-th record time; one
    series per span gives x at the span's record times and end.  The
    metadata counts the spans and the products A @ x.

    x[populations] are the 2^N basis populations.  Each segment's A must
    conserve their sum: its `trace_leak`, the largest column sum of
    A[populations], and the populations' normalisation drift and
    negativity at each record time must stay below their LIMITS entries,
    or `error` is raised; the largest of each goes to the metadata.
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
    counted = np.zeros(x.size)
    counted[populations] = 1.0

    def check(t, **residuals):
        if not all(value < LIMITS[key] for key, value in residuals.items()):
            raise error(f"at t={t:.3f}: " + ", ".join(
                f"{key} {value:.1e}" for key, value in residuals.items()))
        for key, value in residuals.items():
            worst[key] = max(worst.get(key, 0.0), float(value))

    def record(t, y):
        pop = y[populations]
        check(t, norm_drift=abs(pop.sum() - 1.0), negativity=-pop.min())
        dens.append(pop @ basis_bits(pop.size.bit_length() - 1))

    record(0.0, x)
    rec, products, spans = 1, 0, 0
    for t, end in zip(edges[:-1], edges[1:]):
        a, rect = build(t)
        check(t, trace_leak=np.abs(counted @ a).max())
        series = _Series(rect, tol)
        while t < end:
            stop = min(end, t + series.reach,
                       times[min(rec + most, RECORD_POINTS) - 1])
            inside = np.searchsorted(times, stop, side="right") - rec
            taus = times[rec:rec + inside] - t
            if not inside or times[rec + inside - 1] != stop:
                taus = np.append(taus, stop - t)
            sums, used = series.span(a, x, taus)
            products, spans = products + used, spans + 1
            for i in range(inside):
                record(times[rec + i], sums[i])
            # free the sums, holding no view of them, before the next span
            # allocates its own
            rec, x, t = rec + inside, sums[-1].copy(), stop
            del sums
    dens = np.array(dens)
    sites = np.asarray(list(output_sites), dtype=int)
    ts = TimeSeries(times, dens, dens[:, sites].sum(axis=1),
                    metadata={"engine": engine, **worst,
                              "output_sites": [int(s) for s in sites],
                              "products": products, "spans": spans})
    ts.final_state = x
    return ts
