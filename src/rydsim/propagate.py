"""Shared propagator of both exact engines: x' = A x with a real A constant
between schedule breakpoints, sampled on the record grid by Chebyshev
series of exp(tau A) x (Tal-Ezer & Kosloff, J. Chem. Phys. 81:3967, 1984)
that need only products A @ x with a real CSR A.  Let the
rectangle Re [lo, hi] x Im [-b, b] hold A's spectrum, with centre
c = (lo + hi) / 2 and half-widths a = (hi - lo) / 2 and b.  If a >= b,
with W = (A - c) / a,

    exp(tau A) x = e^{c tau} sum_k (2 - delta_k0) I_k(tau a) T_k(W) x;

else, with B = (A - c) / b, T_k(-iB) = (-i)^k U_k and i^k J_k = I_k(i tau b)
make the series real (Kosloff, Annu. Rev. Phys. Chem. 45:145, 1994):

    exp(tau A) x = e^{c tau} sum_k (2 - delta_k0) J_k(tau b) U_k x,
    U_0 = 1, U_1 = B, U_{k+1} = 2 B U_k + U_{k-1}.

The terms do not depend on tau, so one series per span serves every
record time inside it; a record reads only the basis populations, so only
those are summed at each record time, and the whole state only at the
span's end.  A span is a whole segment, halved only where its terms' rounding
could reach the result.  Each term is one call of scipy's CSR kernel,
which adds A (2/f) U_k into the row holding -c (2/f) U_k -+ U_{k-1}.

scipy is used only for that compiled kernel, its extension
scipy/sparse/_sparsetools loaded on its own: no Python module of scipy is
imported, since `import scipy.sparse` also loads scipy's array-API layer
(~210 ms against ~0.3 ms for the extension).  Operators are `CSR` records
of three arrays, checked by `check_operator` before the kernel reads them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from typing import NamedTuple

import numpy as np

from .model import basis_bits
from .timeseries import TimeSeries


def _load_sparsetools():
    """scipy's compiled sparse kernels, found through scipy's package spec
    (which imports nothing) and loaded without scipy's Python modules."""
    name = "scipy.sparse._sparsetools"
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "sparse"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"cannot find scipy's compiled extension {name}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()
# y += A x for A in CSR (csr_matvec) or CSC (csc_matvec) arrays; no bounds
# checks, so every operator passes `check_operator` first
csr_matvec, csc_matvec = _sparsetools.csr_matvec, _sparsetools.csc_matvec


class CSR(NamedTuple):
    """A square real operator in compressed sparse rows: row i holds
    data[indptr[i]:indptr[i + 1]] at columns indices[indptr[i]:indptr[i + 1]],
    with float64 data and int32 indices."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __matmul__(self, x) -> np.ndarray:
        """A @ x for a real vector x."""
        x = np.asarray(x, dtype=float)
        check_operator(self, x.size)
        y = np.zeros(x.size)
        csr_matvec(x.size, x.size, *self, x, y)
        return y


def check_operator(a, size: int) -> None:
    """Refuse, with a ValueError, what the CSR kernel cannot read safely as
    a size x size operator: anything but a `CSR` record of 1-D arrays,
    data other than float64, indices other than int32, size + 1 row
    pointers other than a rise from 0 to len(indices) == len(data), and a
    column index outside [0, size).  The kernel checks no bounds, so this
    is what stops it reading past an array's end."""
    if not isinstance(a, CSR):
        problem = type(a).__name__
    elif not all(isinstance(v, np.ndarray) and v.ndim == 1 for v in a):
        problem = "fields other than 1-D arrays"
    elif a.data.dtype != np.float64:
        problem = f"data of {a.data.dtype}"
    elif a.indptr.dtype != np.int32 or a.indices.dtype != np.int32:
        problem = (f"indptr of {a.indptr.dtype} and indices of "
                   f"{a.indices.dtype}")
    elif a.indptr.size != size + 1:
        problem = f"{a.indptr.size} row pointers"
    elif (a.indptr[0] != 0 or a.indptr[-1] != a.indices.size
          or a.indices.size != a.data.size or (np.diff(a.indptr) < 0).any()):
        problem = (f"row pointers {a.indptr[0]}..{a.indptr[-1]} for "
                   f"{a.indices.size} indices and {a.data.size} values")
    elif a.indices.size and not (0 <= a.indices.min()
                                 and a.indices.max() < size):
        problem = f"column indices {a.indices.min()}..{a.indices.max()}"
    else:
        return
    raise ValueError(f"the generator must be a CSR record of a {size} x "
                     f"{size} float64 matrix with int32 indices, got "
                     + problem)


RECORD_POINTS = 200
# A series stops where the rest of its weights, against the size of the
# result, falls below the unit roundoff.
TOL = 2.0 ** -53
# Largest growth of a span's series at its end, sum_k |c_k| rho^k: its
# terms' largest size against x's.  Each term's rounding is ~2^-53 of its
# size, so the result's error is ~2^-53 GROWTH = 1.1e-13 of x's size, below
# the 1e-12 to which the tests compare states.  A span is halved while it
# grows more; in the default runs it grows at most 28-fold.
GROWTH = 2.0 ** 10
# Largest term of a span's series against x: the terms, and the rho^k of
# their weights, grow as rho^k, and past 2^1024 they leave the float range
# whatever their coefficients (where |c_k| has rounded to 0, a weight
# would be inf x 0).  2^1000 leaves 2^24 for x's own size and the
# recurrence's doubling.  A span whose terms would pass it is halved.
TERM_GROWTH = 2.0 ** 1000
# Largest Bessel table of a span, in bytes: (record times) x (terms)
# doubles.  A span past it is halved, and each new span pays again the
# ~12 z^(1/3) + 40 terms past z = tau f that its series takes to converge.
# At 200 record times 2^23 bytes hold ~5200 terms (z ~ 5000), where one
# halving adds ~200 terms, 4% of the span's products; the default runs'
# largest table, 200 x 692 doubles (1.1 MB), stays whole.
TABLE_BYTES = 2 ** 23
# Largest residuals allowed: at a record time (the thresholds of
# `validate`), and of a segment's generator, whose population column sums
# change the norm at most that fast.  The default runs' largest column sum
# is 3.5e-15 (classical generator; 3.5e-18 for the quantum one).
LIMITS = {"norm_drift": 1e-6, "negativity": 1e-8, "trace_leak": 1e-10}
# Terms built between two additions into the record sums.
CHUNK = 8


def _bessel(x: np.ndarray, real: bool, terms: int) -> np.ndarray:
    """(x.size, terms): (2 - delta_k0) e^-x I_k(x) if `real`, else
    (2 - delta_k0) J_k(x), by backward recurrence of the ratios c_k / c_{k-1}
    (Miller), which cannot overflow at small x, normalised by
    sum_k (2 - delta_k0) e^-x I_k(x) = 1 or J_0^2 + 2 sum_k J_k^2 = 1;
    row k of one array holds k / (x/2), then that ratio, in place."""
    half = 0.5 * np.asarray(x, dtype=float)
    rows = np.zeros((terms + 22, half.size))
    step = np.add if real else np.subtract
    with np.errstate(divide="ignore"):
        np.divide(np.arange(1, terms + 21)[:, None], half, out=rows[1:-1])
        for k in range(terms + 20, 0, -1):
            r = rows[k]
            step(r, rows[k + 1], out=r)
            np.divide(1.0, r, out=r)
            # inf only where J_{k-1}(x) is 0: as if its denominator were 1e-300
            np.minimum(r, 1.0 / 1e-300, out=r)
    rows[0] = 1.0
    c = np.cumprod(rows[:terms], axis=0, out=rows[:terms])
    if real:
        c[1:] *= 2.0
        c /= c.sum(axis=0)
        return c.T
    c /= np.maximum(c.max(axis=0), -c.min(axis=0))
    norm = np.sqrt(c[0] ** 2 + 2.0 * np.einsum("kn,kn->n", c[1:], c[1:]))
    c[1:] *= 2.0
    # J_0 + 2 sum_k J_2k = 1 fixes the sign
    c *= np.sign(c[::2].sum(axis=0)) / norm
    return c.T


class _Series:
    """The Chebyshev series of exp(tau A) on one segment's rectangle."""

    def __init__(self, rect):
        lo, self.hi, b = rect
        self.c, a = (lo + self.hi) / 2, (self.hi - lo) / 2
        self.real = a >= b
        # f: the long half-width; U_{k+1} = 2 (A - c) / f U_k -+ U_{k-1}
        self.f, short = (a, b) if self.real else (b, a)
        self.step = np.subtract if self.real else np.add
        # the terms grow as rho^k at the ends of the short axis
        s = short / self.f if self.f else 0.0
        self.rho = s + np.hypot(1.0, s)
        # e^{shift tau} times the Bessel table is the series' coefficients
        self.shift = self.c + self.f if self.real else self.c

    def weights(self, table: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """|c_k| rho^k against e^{tau hi}, the result's size, at taus."""
        return (np.abs(table) * self.rho ** np.arange(table.shape[1])
                * np.exp((self.shift - self.hi) * taus)[:, None])

    def coefficients(self, taus: np.ndarray):
        """A span's coefficient rows at its taus (ascending, its end last)
        and the terms each record needs, or None where it grows past
        GROWTH, its terms past TERM_GROWTH or its table past TABLE_BYTES.
        At the end, z = tau f, the Bessel asymptotics give the
        terms, z + 12 z^(1/3) + 40 (imaginary axis) or 9 sqrt(z) + 24
        (real), doubled until the weights of the 32 past them fall below
        TOL.  Each record keeps the terms until the rest of its weights
        falls below TOL, and at least as many as the records before it."""
        z = taus[-1] * self.f
        terms = int(9 * z ** 0.5 + 24 if self.real
                    else z + 12 * z ** (1 / 3) + 40)
        while True:
            if (taus.size * (terms + 32) * 8 > TABLE_BYTES
                    or (terms + 32) * np.log(self.rho) > np.log(TERM_GROWTH)):
                return None
            table = _bessel(taus * self.f, self.real, terms + 32)
            end = self.weights(table[-1:], taus[-1:])[0]
            if not end.sum() * np.exp(self.hi * taus[-1]) <= GROWTH:
                return None
            if end[terms:].sum() < TOL:
                break
            terms *= 2
        # the weights of 16 records at a time, so that none is held whole
        counts = np.concatenate([
            (np.cumsum(self.weights(table[i:i + 16], taus[i:i + 16])[:, ::-1],
                       axis=1) >= TOL).sum(axis=1)
            for i in range(0, taus.size, 16)])
        table *= np.exp(self.shift * taus)[:, None]
        return table, np.maximum.accumulate(np.maximum(counts, 1))

    def span(self, a, x: np.ndarray, coef: np.ndarray, need: np.ndarray,
             populations):
        """exp(tau a) @ x at the span's taus, from their `coefficients`: its
        entries [populations] at every tau, the whole vector at the last
        tau, and the number of products.  The terms go into these sums
        CHUNK at a time, by matrix products."""
        terms = int(need[-1])
        block = np.empty((min(CHUNK, terms), x.size))
        pops = np.zeros((need.size, x[populations].size))
        end = np.zeros(x.size)
        scaled = np.empty(x.size)
        block[0] = x
        for k in range(terms):
            if k:
                cur, new = block[(k - 1) % CHUNK], block[k % CHUNK]
                # new = (2 - delta_k1) (a - c) / f U_{k-1} -+ U_{k-2}
                np.multiply(cur, (1 + (k > 1)) / self.f, out=scaled)
                np.multiply(scaled, -self.c, out=new)
                if k > 1:
                    self.step(new, block[(k - 2) % CHUNK], out=new)
                csr_matvec(x.size, x.size, a.indptr, a.indices, a.data,
                           scaled, new)
            if k % CHUNK == CHUNK - 1 or k == terms - 1:
                start = k - k % CHUNK
                built = block[:k + 1 - start]
                i = np.searchsorted(need, start, side="right")
                pops[i:] += coef[i:, start:k + 1] @ built[:, populations]
                # scaled is free until the next term is built
                end += np.matmul(coef[-1, start:k + 1], built, out=scaled)
        return pops, end, terms - 1


def propagate(x: np.ndarray, build, segments, engine: str, error,
              output_sites=(), populations=slice(None)) -> TimeSeries:
    """Advance x' = A x from t = 0 onto the RECORD_POINTS grid up to t_end,
    the end of the last of the `segments` (t0, t1, detunings) that tile
    [0, t_end] (`DetuningSchedule.segments`): the `engine`'s TimeSeries of
    per-site densities, with x at t_end as `final_state`.  On each segment
    A is build(detunings), a `CSR` record, with a rectangle
    (lo, hi, b) holding its spectrum in Re [lo, hi] x Im [-b, b]
    (Bendixson: Gershgorin bounds on A's Hermitian and skew-Hermitian
    parts); `check_operator` refuses one the kernel cannot read.

    Each segment is one span, halved while its series grows past GROWTH;
    one series and one Bessel table per span give x[populations] at its
    record times and the whole x at its end.  The metadata counts the
    spans and the products A @ x.

    x[populations] are the 2^N basis populations.  Each segment's A must
    conserve their sum: its `trace_leak`, the largest column sum of
    A[populations], and the populations' normalisation drift and
    negativity at each record time must stay below their LIMITS entries,
    or `error` is raised at the first time one does not; the largest of
    each goes to the metadata.
    """
    t_end = segments[-1][1]
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    times = np.linspace(0.0, t_end, RECORD_POINTS)
    worst, dens = {}, []
    counted = np.zeros(x.size)
    counted[populations] = 1.0
    bits = basis_bits(int(counted.sum()).bit_length() - 1)

    def check(at, **residuals):
        """Raise `error` at the first of times `at` where a residual (an
        array over `at`) is not below its limit; else keep the largest."""
        ok = np.logical_and.reduce(
            [value < LIMITS[key] for key, value in residuals.items()])
        if not ok.all():
            i = int(np.argmin(ok))
            raise error(f"at t={at[i]:.3f}: " + ", ".join(
                f"{key} {value[i]:.1e}" for key, value in residuals.items()))
        for key, value in residuals.items():
            worst[key] = max(worst.get(key, 0.0), float(value.max()))

    def record(at, pops):
        check(at, norm_drift=np.abs(pops.sum(axis=1) - 1.0),
              negativity=-pops.min(axis=1))
        dens.append(pops @ bits)

    record(times[:1], x[None, populations])
    rec, products, spans = 1, 0, 0
    for t, end, detunings in segments:
        a, rect = build(detunings)
        check_operator(a, x.size)
        # counted @ a: a's CSR arrays read as CSC are a^T
        leak = np.zeros(x.size)
        csc_matvec(x.size, x.size, *a, counted, leak)
        check([t], trace_leak=np.abs(leak).max(keepdims=True))
        # the ends of the spans still to walk, the next one last
        series, stops = _Series(rect), [end]
        while stops:
            inside = np.searchsorted(times, stops[-1], side="right") - rec
            taus = times[rec:rec + inside] - t
            if not inside or times[rec + inside - 1] != stops[-1]:
                taus = np.append(taus, stops[-1] - t)
            if (fit := series.coefficients(taus)) is None:
                stops.append(t + (stops[-1] - t) / 2)
                if stops[-1] == t:
                    raise error(f"at t={t:.3f}: no span keeps the series' "
                                f"growth within {GROWTH:g}")
                continue
            pops, x, used = series.span(a, x, *fit, populations)
            # the table goes before the next span's is built
            del fit
            products, spans = products + used, spans + 1
            if inside:
                record(times[rec:rec + inside], pops[:inside])
            rec, t = rec + inside, stops.pop()
    dens = np.concatenate(dens)
    sites = np.asarray(list(output_sites), dtype=int)
    ts = TimeSeries(times, dens, dens[:, sites].sum(axis=1),
                    metadata={"engine": engine, **worst,
                              "output_sites": [int(s) for s in sites],
                              "products": products, "spans": spans})
    ts.final_state = x
    return ts
