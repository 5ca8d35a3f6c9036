import ast
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import block_diag, expm
from scipy.special import ive, jv

import rydsim
from rydsim import classical, propagate as prop
from rydsim.devices import (DELTA_F, build_and_gate, build_diode,
                            build_nand_gate, build_switch_chain)
from rydsim.experiments import run_device
from rydsim.model import Configuration, InputError, SimParams
from rydsim.quantum import (ATOM_CAP, build_hamiltonian,
                            density_from_configuration, evolve_quantum,
                            liouvillian)
from records import to_record, to_scipy
from test_quantum import dense_liouvillian, random_network


def bendixson(a) -> tuple:
    """(lo, hi, b): Gershgorin bounds on the Hermitian and skew-Hermitian
    parts of sparse `a`, which hold its spectrum in Re [lo, hi] x
    Im [-b, b].  Forms a's transpose and two sums of it, so it serves as
    the reference the engines' own rectangles are checked against."""
    diag = a.diagonal()
    off = a - sp.diags(diag)
    herm = np.asarray(abs(off + off.conj().T).sum(axis=1)).ravel() / 2
    skew = np.asarray(abs(off - off.conj().T).sum(axis=1)).ravel() / 2
    return (float((diag.real - herm).min()), float((diag.real + herm).max()),
            float((np.abs(diag.imag) + skew).max()))


def classical_generators():
    """(label, (generator, rectangle)): the devices' classical generators, a
    pulsed segment of the NAND gate, and a random network and parameters."""
    params = SimParams(1.0, 1.0, 0.003)
    nand = build_nand_gate((1, 0))
    static = nand.network.static_detunings
    pulse = nand.schedule.segments(8.0, static)[1][2]
    assert not np.array_equal(pulse, static)
    for label, net, det in [
            ("switch", build_switch_chain(DELTA_F).network, None),
            ("diode", build_diode("forward").network, None),
            ("and", build_and_gate((1, 1)).network, None),
            ("nand", nand.network, None), ("pulsed", nand.network, pulse)]:
        yield label, classical.classical_generator(net, params, det)
    rng = np.random.default_rng(8)
    params = SimParams(*rng.uniform(0.2, 3.0, 2), rng.uniform(0.0, 1.0))
    yield "random", classical.classical_generator(random_network(rng, 5),
                                                  params)


def rate_generator(rng, dim=16, scale=1.0):
    """Random rate matrix: non-negative off-diagonal rates, zero column
    sums, so the state stays a probability vector."""
    g = scale * rng.uniform(size=(dim, dim))
    np.fill_diagonal(g, 0.0)
    g -= np.diag(g.sum(axis=0))
    return g


def normal_generator(lo, hi, b, dim=16):
    """Block-diagonal normal generator with eigenvalues hi, lo and
    (lo + hi) / 2 +- i b: its Bendixson rectangle is (lo, hi, b), and its
    Chebyshev terms grow as fast as that rectangle lets them."""
    c = (lo + hi) / 2
    return block_diag([[hi]], [[lo]], *[[[c, b], [-b, c]]] * (dim // 2 - 1))


def start(dim=16):
    x = np.zeros(dim)
    x[0] = 1.0
    return x


def run(generators, edges, t_end, x):
    """propagate on a piecewise-constant generator: generators[i] holds
    from edges[i] (edges[0] = 0) to the next edge, and each segment hands
    its generator to build in place of detunings."""
    def build(g):
        g = sp.csr_matrix(g)
        return to_record(g), bendixson(g)
    bounds = [*edges, t_end]
    return prop.propagate(x, build, list(zip(bounds[:-1], bounds[1:],
                                             generators)), "test")


def reference(generators, edges, t_end, x):
    """exp of each piece by scipy.linalg.expm, chained, at every record
    time."""
    bounds = [*edges, t_end]
    out = []
    for t in np.linspace(0.0, t_end, prop.RECORD_POINTS):
        y = x
        for g, t0, t1 in zip(generators, bounds[:-1], bounds[1:]):
            if t > t0:
                y = expm(g * (min(t, t1) - t0)) @ y
        out.append(y)
    return np.array(out)


def densities(states):
    bits = (np.arange(states.shape[1])[:, None] >> np.arange(4)) & 1
    return states @ bits


def test_random_generator_matches_expm():
    rng = np.random.default_rng(1)
    gens, t_end, x = [rate_generator(rng)], 3.0, start()
    ts = run(gens, [0.0], t_end, x)
    expected = reference(gens, [0.0], t_end, x)
    np.testing.assert_allclose(ts.site_density, densities(expected),
                               atol=1e-12)
    np.testing.assert_allclose(ts.final_state, expected[-1], atol=1e-12)
    assert ts.metadata["products"] > 0
    assert ts.metadata["spans"] >= 1


@pytest.mark.parametrize("case", ["between-records", "on-record",
                                  "segment-shorter-than-interval"])
def test_breakpoints_match_expm(case):
    rng = np.random.default_rng(2)
    t_end, x = 4.0, start()
    dt = t_end / (prop.RECORD_POINTS - 1)
    if case == "between-records":
        edges = [0.0, 37.4 * dt]
    elif case == "on-record":
        edges = [0.0, np.linspace(0.0, t_end, prop.RECORD_POINTS)[57]]
    else:
        edges = [0.0, 80.2 * dt, 80.7 * dt]
    gens = [rate_generator(rng, scale=s) for s in (1.0, 3.0, 0.5)][:len(edges)]
    ts = run(gens, edges, t_end, x)
    expected = reference(gens, edges, t_end, x)
    np.testing.assert_allclose(ts.site_density, densities(expected),
                               atol=1e-12)
    np.testing.assert_allclose(ts.final_state, expected[-1], atol=1e-12)


def test_zero_generator_keeps_the_state():
    x = np.full(16, 1.0 / 16)
    ts = run([np.zeros((16, 16))], [0.0], 5.0, x)
    np.testing.assert_array_equal(ts.final_state, x)
    np.testing.assert_allclose(ts.site_density, 0.5)
    assert ts.metadata["spans"] == 1


@pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan")])
def test_rejects_non_positive_t_end(t_end):
    with pytest.raises(InputError, match="t_end must be positive"):
        run([np.zeros((16, 16))], [0.0], t_end, start())


def test_one_span_covers_dozens_of_record_times():
    # a real spectrum in [-2, 0]: the terms do not grow (rho = 1), so one
    # span covers the segment, all 200 record times, and its series needs
    # only the ~8.6 sqrt(z) terms after which e^-z I_k(z) < 2^-53, at
    # z = t_end f = 270
    rng = np.random.default_rng(3)
    g = rate_generator(rng)
    g = (g + g.T) / 2
    g -= np.diag(g.sum(axis=0))
    g /= -np.linalg.eigvalsh(g).min() / 2
    t_end = 150.0
    series = prop._Series(bendixson(sp.csr_matrix(g)))
    assert series.real and series.rho == 1.0
    ts = run([g], [0.0], t_end, start())
    assert ts.metadata["spans"] == 1
    assert ts.metadata["products"] < 9 * np.sqrt(t_end * series.f)
    np.testing.assert_allclose(ts.site_density,
                               densities(reference([g], [0.0], t_end, start())),
                               atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), split=st.floats(0.01, 0.99),
       scale=st.floats(0.1, 30.0))
@example(seed=5399406, split=0.5, scale=7.0)
def test_extra_breakpoint_keeps_the_series(seed, split, scale):
    # cutting a segment where the generator does not change gives the same
    # states, up to rounding; in the pinned example the rectangle's hi is
    # 10.6, so a whole-run span whose growth were measured against
    # e^{tau hi} (755) and not against x (1.1e12) would be off by 4.6e-8
    g = rate_generator(np.random.default_rng(seed), scale=scale)
    t_end = 2.0
    whole = run([g], [0.0], t_end, start())
    cut = run([g, g], [0.0, split * t_end], t_end, start())
    np.testing.assert_allclose(cut.site_density, whole.site_density,
                               atol=1e-12)
    np.testing.assert_allclose(cut.final_state, whole.final_state, atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_random_lindbladians_match_expm(seed):
    # 1-3 atoms, dephasing up to 20 and decay up to 1: rectangles from
    # tall and thin to wide
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    net = random_network(rng, n)
    params = SimParams(rng.uniform(0.2, 3.0), rng.uniform(0.0, 20.0),
                       rng.uniform(0.0, 1.0))
    initial = Configuration(tuple(rng.integers(0, 2, n)))
    t_end = 3.0
    ts = evolve_quantum(net, params, initial, t_end)
    ham = build_hamiltonian(net, net.static_detunings, params.omega)
    lv = dense_liouvillian(ham, params)
    lo, hi, b = liouvillian(ham, params)[1]
    blo, bhi, bb = bendixson(sp.csr_matrix(lv))
    assert lo <= blo + 1e-12 and bhi <= hi + 1e-12 and bb <= b + 1e-12
    step = expm(lv * t_end / (prop.RECORD_POINTS - 1))
    x = density_from_configuration(initial).ravel()
    expected = []
    for _ in range(prop.RECORD_POINTS):
        expected.append(x.reshape(1 << n, 1 << n).diagonal().real)
        x = step @ x
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    np.testing.assert_allclose(ts.site_density, np.array(expected) @ bits,
                               atol=1e-12)


def test_record_sums_stay_within_64_mb_at_the_caps():
    # a span sums the populations of up to every record time, with no
    # budget of its own: RECORD_POINTS x 2^N doubles at each engine's cap
    for cap in (classical.GENERATOR_CAP, ATOM_CAP):
        assert prop.RECORD_POINTS * 2 ** cap * 8 <= 64 * 2 ** 20


@pytest.mark.parametrize("engine, most", [("quantum", 450),
                                          ("classical-exact", 125)])
def test_switch_products_repeat_and_stay_low(engine, most):
    dev = build_switch_chain(DELTA_F)
    counts = [run_device(dev, SimParams(1.0, 1.0, 0.003), 8.0,
                         engine=engine).metadata["products"]
              for _ in range(2)]
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= most


@pytest.mark.parametrize("built", [pytest.param(built, id=label)
                                   for label, built in classical_generators()])
def test_rates_rectangle_equals_bendixson(built):
    g, rect = built
    np.testing.assert_allclose(rect, bendixson(to_scipy(g)), rtol=1e-13,
                               atol=0.0)


@pytest.mark.parametrize("convert, got", [
    (lambda g: to_scipy(g).tocsc(), "csc_matrix"),
    (lambda g: to_scipy(g).toarray(), "ndarray"),
    (lambda g: g._replace(data=g.data.astype(complex)),
     "data of complex128")],
    ids=["csc", "dense", "complex"])
def test_rates_rectangle_refuses_what_the_kernel_cannot_take(convert, got):
    # the classical engine hands its generator to propagate unchecked, so
    # propagate's check is what refuses one the kernel cannot take
    g, rect = classical.classical_generator(
        random_network(np.random.default_rng(9), 2), SimParams(1.0, 1.0, 0.1))
    with pytest.raises(ValueError, match="CSR record of a 4 x 4 float64 "
                       "matrix with int32 indices, got " + got):
        prop.propagate(start(4), lambda det: (convert(g), rect),
                       [(0.0, 1.0, None)], "classical-exact")


@pytest.mark.parametrize("case", ["real", "imaginary", "one-term",
                                  "zero-width", "short-estimate"])
def test_span_matches_expm(case):
    # one span straight from its coefficients: the real series (a >= b),
    # the imaginary one (a < b), a span whose series stops after U_1, a
    # rectangle of zero width, where no 1 / f may be taken, and a nearly
    # square tall one (rho = 2.2) whose terms past the first estimate and
    # the 32 after it, 285 at z = 150, still weigh 2e-10; every fifth
    # entry is summed at each tau, the whole vector at the last one
    rng = np.random.default_rng(6)
    taus = np.array([0.3, 1.1, 2.0])
    if case == "imaginary":
        skew = rng.normal(scale=0.3, size=(16, 16))
        g = skew - skew.T - 0.2 * np.eye(16)
    elif case == "short-estimate":
        g = normal_generator(-1.8, 0.0, 1.0)
        taus = np.array([60.0, 110.0, 150.0])
    elif case == "zero-width":
        g = -0.7 * np.eye(16)
    else:
        g = rate_generator(rng)
    if case == "one-term":
        taus = np.array([1e-10])
    x = rng.uniform(size=16)
    series = prop._Series(bendixson(sp.csr_matrix(g)))
    coef, need = series.coefficients(taus)
    with np.errstate(divide="raise", invalid="raise"):
        pops, end, used = series.span(to_record(g), x, coef, need,
                                      slice(None, None, 5))
    exact = np.array([expm(g * t) @ x for t in taus])
    assert pops.shape == (taus.size, 4)
    np.testing.assert_allclose(pops, exact[:, ::5], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(end, exact[-1], rtol=0.0, atol=1e-12)
    assert series.real == (case not in ("imaginary", "short-estimate"))
    assert (series.f == 0.0) == (case == "zero-width")
    if case == "one-term":
        assert used == 1
    elif case == "zero-width":
        assert used == 0
    elif case == "short-estimate":
        assert used > 285
    else:
        assert used >= 10


def test_span_is_halved_where_its_series_grows_past_the_bound():
    # a wide rectangle of b = a (rho = 1 + sqrt 2) with hi = 0: over the
    # whole run the series grows to sum_k (2 - delta_k0) e^-z I_k(z) rho^k
    # = 1.5e3, whose rounding, 2^-53 x 1.5e3 = 1.7e-13, the bound does not
    # allow; over half of it, to 55.  The one population is x[0], which
    # the eigenvalue 0 keeps.
    g = normal_generator(-2.0, 0.0, 1.0)
    t_end, k = 16.0, np.arange(200)

    def growth(tau):
        return ((2 - (k == 0)) * ive(k, tau) * (1 + np.sqrt(2)) ** k).sum()

    assert 2.0 ** -53 * growth(t_end) > 1.2e-13 > 2.0 ** -53 * growth(
        t_end / 2)
    x = np.random.default_rng(11).uniform(size=16)
    x[0] = 1.0
    ts = prop.propagate(x, lambda g: (to_record(g), bendixson(g)),
                        [(0.0, t_end, sp.csr_matrix(g))], "test",
                        populations=slice(0, 1))
    assert ts.metadata["spans"] == 2
    np.testing.assert_allclose(ts.final_state, expm(g * t_end) @ x,
                               rtol=0.0, atol=1e-12)


def test_span_too_short_to_halve_is_refused():
    # on the second segment, a rectangle whose series no span keeps within
    # GROWTH (hi = NaN): the halving stops where a half no longer moves t,
    # ~53 halvings past t = 1, and names that time, in place of walking
    # empty spans for ever
    g = sp.csr_matrix(rate_generator(np.random.default_rng(12)))
    rects = {"kept": bendixson(g), "nan": (-1.0, np.nan, 0.0)}
    with pytest.raises(prop.IntegrationError,
                       match=r"at t=1\.000: no span keeps "):
        prop.propagate(start(), lambda key: (to_record(g), rects[key]),
                       [(0.0, 1.0, "kept"), (1.0, 2.0, "nan")], "test")


def normal_exp(lo, hi, b, t, x):
    """exp(t G) x for G = normal_generator(lo, hi, b, x.size), in closed
    form: e^{t hi}, e^{t lo}, and rotations by t b scaled by e^{t c}."""
    c, cos, sin = (lo + hi) / 2, np.cos(t * b), np.sin(t * b)
    return block_diag([[np.exp(t * hi)]], [[np.exp(t * lo)]],
                      *[np.exp(t * c) * np.array([[cos, sin], [-sin, cos]])]
                      * (x.size // 2 - 1)) @ x


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_long_segment_is_halved_to_keep_its_tables_in_budget():
    # a rotation at rate b = 20 over t = 400 (z = 8000, rho = 1): as one
    # span its table would hold 199 x ~8300 doubles (13 MB), past
    # TABLE_BYTES, so the segment runs as two spans of ~100 x 4300
    g = normal_generator(0.0, 0.0, 20.0)
    x = np.random.default_rng(14).uniform(size=16)
    x[0] = 1.0
    tracemalloc.start()
    try:
        ts = prop.propagate(x, lambda g: (to_record(g), bendixson(g)),
                            [(0.0, 400.0, sp.csr_matrix(g))], "test",
                            populations=slice(0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.metadata["spans"] == 2
    # one ~3.4 MB table and its weights at a time (4.4 MiB): the first
    # span's table held while the second's is built would pass the bound
    assert peak <= 6 * 2**20
    np.testing.assert_allclose(ts.final_state,
                               normal_exp(0.0, 0.0, 20.0, 400.0, x),
                               rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_long_span_keeps_its_terms_in_the_float_range():
    # rho = 1.196 over t = 1000 (z = 10 000): the terms grow as rho^k and
    # leave the float range past k ~ 3900, while the coefficients, rounded
    # to 0 there, keep their weighted growth at ~2.  Spans are halved
    # until rho^k stays within TERM_GROWTH, so neither a term nor a
    # weight overflows, and no inf x 0 makes a NaN.
    lo, b, t_end = -3.6, 10.0, 1000.0
    g = normal_generator(lo, 0.0, b)
    x = np.random.default_rng(15).uniform(size=16)
    x[0] = 1.0
    ts = prop.propagate(x, lambda g: (to_record(g), bendixson(g)),
                        [(0.0, t_end, sp.csr_matrix(g))], "test",
                        populations=slice(0, 1))
    assert ts.metadata["spans"] > 4
    np.testing.assert_allclose(ts.final_state,
                               normal_exp(lo, 0.0, b, t_end, x),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("engine", ["quantum", "classical-exact"])
def test_one_kernel_call_per_product(monkeypatch, engine):
    # each counted product of the series is one call of the CSR kernel
    calls = []
    matvec = prop.csr_matvec

    def counted(*args):
        calls.append(args[0])
        return matvec(*args)

    monkeypatch.setattr(prop, "csr_matvec", counted)
    ts = run_device(build_switch_chain(DELTA_F), SimParams(1.0, 1.0, 0.003),
                    8.0, engine=engine)
    assert len(calls) == ts.metadata["products"] >= 100


def _falling_pointers(r):
    ptr = r.indptr.copy()
    ptr[[3, 4]] = ptr[[4, 3]]
    return r._replace(indptr=ptr)


def _column(r, value):
    cols = r.indices.copy()
    cols[5] = value
    return r._replace(indices=cols)


@pytest.mark.parametrize("convert, problem", [
    (lambda r: to_scipy(r).tocoo(), "coo_matrix"),
    (lambda r: to_scipy(r).tocsc(), "csc_matrix"),
    (to_scipy, "csr_matrix"),
    (lambda r: to_scipy(r).toarray(), "ndarray"),
    (tuple, "tuple"),
    (lambda r: r._replace(data=r.data[:, None]),
     "fields other than 1-D arrays"),
    (lambda r: r._replace(data=r.data.astype(np.float32)), "data of float32"),
    (lambda r: r._replace(data=r.data.astype(complex)), "data of complex128"),
    (lambda r: r._replace(indices=r.indices.astype(np.int64)),
     "indptr of int32 and indices of int64"),
    (lambda r: to_record(to_scipy(r)[:8]), "9 row pointers"),
    (lambda r: r._replace(indices=r.indices[:-1]),
     "row pointers 0..256 for 255 indices and 256 values"),
    (_falling_pointers, "row pointers 0..256 for 256"),
    (lambda r: _column(r, 16), "column indices 0..16"),
    (lambda r: _column(r, -1), "column indices -1..15")],
    ids=["coo", "csc", "scipy-csr", "dense", "tuple", "2d-data", "float32",
         "complex", "index-dtype", "shape", "indptr-end", "indptr-falls",
         "index-past-size", "negative-index"])
def test_refuses_an_operator_the_kernel_cannot_take(convert, problem):
    # the kernel checks no bounds: every way an operator could make it read
    # past an array's end is refused before the first product, by
    # propagate and by a record's own product
    g = rate_generator(np.random.default_rng(7))
    bad = convert(to_record(g))
    message = ("CSR record of a 16 x 16 float64 matrix with int32 indices, "
               "got " + problem)
    with pytest.raises(ValueError, match=message):
        prop.propagate(start(), lambda det: (bad, bendixson(sp.csr_matrix(g))),
                       [(0.0, 1.0, None)], "test")
    if isinstance(bad, prop.CSR):
        with pytest.raises(ValueError, match=message):
            bad @ start()


def negative_rate_generator():
    """A column-conserving generator in which state 3 drains state 7 at a
    negative rate, so p_3 falls below zero once p_7 has grown."""
    g = rate_generator(np.random.default_rng(5), scale=0.2)
    g[3, 7] = -2.0
    g[7, 7] -= g[:, 7].sum()
    return g


def record_residuals(states):
    """Each record time's residuals, one record at a time."""
    return {"norm_drift": np.array([abs(y.sum() - 1.0) for y in states]),
            "negativity": np.array([-y.min() for y in states])}


def test_error_names_the_first_broken_record_time():
    g, t_end = negative_rate_generator(), 4.0
    # the first broken record time comes after dozens that pass in the
    # run's first span: a quarter of the run, whose 49 record times one
    # series covers
    rect = bendixson(sp.csr_matrix(g))
    times = np.linspace(0.0, t_end, prop.RECORD_POINTS)
    assert prop._Series(rect).coefficients(times[1:50]) is not None
    res = record_residuals(reference([g], [0.0], t_end, start()))
    broken = np.logical_or.reduce([res[k] >= prop.LIMITS[k] for k in res])
    first = int(np.argmax(broken))
    assert 1 < first < 49
    with pytest.raises(prop.IntegrationError,
                       match=re.escape(f"at t={times[first]:.3f}: ")):
        run([g], [0.0], t_end, start())


def test_metadata_keeps_each_residuals_largest_value(monkeypatch):
    # with the limits raised, a leaky variant runs to the end in four
    # segments of the same generator, one span each; its norm drift peaks
    # in the second span
    for key in prop.LIMITS:
        monkeypatch.setitem(prop.LIMITS, key, 10.0)
    g, t_end = negative_rate_generator(), 4.0
    g[5, 5] -= 0.3
    g[9, 9] += 0.3
    res = record_residuals(reference([g], [0.0], t_end, start()))
    assert 50 < res["norm_drift"].argmax() < 100
    ts = run([g] * 4, [0.0, 1.0, 2.0, 3.0], t_end, start())
    assert ts.metadata["spans"] == 4
    for key, values in res.items():
        assert ts.metadata[key] == pytest.approx(values.max(), rel=1e-10)


@pytest.mark.parametrize("engine", ["quantum", "classical-exact"])
def test_first_record_is_the_initial_state(engine):
    # t = 0 is read off the first span like every later record time: its
    # coefficient row is [1, 0, ...], so it gives x's populations exactly
    dev = build_nand_gate((1, 0))
    ts = run_device(dev, SimParams(1.0, 1.0, 0.003), 8.0, engine=engine)
    assert np.array_equal(ts.site_density[0], dev.initial.bits)
    # summary.json writes the metadata in its order, so a summary's bytes
    # hold only while the residuals keep the order of LIMITS
    assert list(ts.metadata)[:5] == ["engine", *prop.LIMITS, "output_sites"]


@pytest.mark.parametrize("device, segments", [
    (build_nand_gate((1, 0)), 3), (build_switch_chain(DELTA_F), 1)])
def test_one_bessel_table_per_segment(monkeypatch, device, segments):
    # each segment is one span, whose table's first estimate of its terms
    # suffices
    calls = []
    bessel = prop._bessel

    def counted(*args):
        calls.append(args)
        return bessel(*args)

    monkeypatch.setattr(prop, "_bessel", counted)
    ts = run_device(device, SimParams(1.0, 1.0, 0.003), 8.0,
                    engine="classical-exact")
    assert len(calls) == ts.metadata["spans"] == segments


@pytest.mark.parametrize("real", [True, False])
def test_reach_tables_are_read_only(real):
    # a span's Bessel table and its record sums are built in place in
    # arrays of its own: its taus, the state and the operator stay as they
    # were, and each is read-only here, so a write into one would raise
    rng = np.random.default_rng(10)
    if real:
        g = rate_generator(rng)
    else:
        skew = rng.normal(size=(16, 16))
        g = skew - skew.T - 0.1 * np.eye(16)
    series = prop._Series(bendixson(sp.csr_matrix(g)))
    assert series.real == real
    op, x = to_record(g), rng.uniform(size=16)
    taus = np.array([0.1, 0.25, 0.5])
    for array in (taus, x, *op):
        array.setflags(write=False)
    coef, need = series.coefficients(taus)
    pops, end, used = series.span(op, x, coef, need, slice(None, None, 5))
    np.testing.assert_allclose(end, expm(g * taus[-1]) @ x, rtol=0.0,
                               atol=1e-12)


@pytest.mark.parametrize("real", [True, False])
def test_bessel_table_matches_scipy_up_to_a_thousand(real):
    # a span's table runs to ~1.1 z + 60 terms at z = tau f in the
    # hundreds; scipy's jv is itself off by up to ~4e-14 at x = 1000, so
    # the identities e^-x (I_0 + 2 sum_k I_2k) = (1 + e^-2x) / 2 and
    # J_0 - 2 J_2 + 2 J_4 - ... = cos x, which the table's normalisation
    # does not use, check it more closely
    x = np.array([0.5, 30.0, 300.0, 1000.0])
    k = np.arange(int(1.2 * x.max() + 60))
    table = prop._bessel(x, real, k.size)
    assert table.shape == (x.size, k.size)
    exact = (2.0 - (k == 0)) * (ive if real else jv)(k, x[:, None])
    np.testing.assert_allclose(table, exact, rtol=0.0,
                               atol=1e-15 if real else 1e-13)
    even = table[:, ::2] @ (1.0 if real else -1.0) ** k[:(k.size + 1) // 2]
    np.testing.assert_allclose(
        even, (1.0 + np.exp(-2.0 * x)) / 2.0 if real else np.cos(x),
        rtol=0.0, atol=1e-14)


# Any scipy import: `import scipy.sparse` alone takes ~210 ms, most of it
# scipy's array-API layer.  Of scipy, the package loads only scipy.sparse's
# compiled CSR kernel (`propagate._load_sparsetools`), and the Bessel
# coefficients come from a numpy recurrence.
BANNED = ("scipy",)


def test_package_imports_only_scipy_sparse():
    offenders = []
    for path in sorted(Path(rydsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if any(name == b or name.startswith(b + ".")
                                 for b in BANNED)]
    assert not offenders


# Products of the loaded kernel against scipy.sparse's own, with the
# kernel loaded before or after `import scipy.sparse`: the two loads
# share one extension module.
KERNEL_CHECK = """
import sys
import numpy as np
import {0}
import {1}
import scipy.sparse as sp
from rydsim import propagate as prop
m = sp.random(40, 40, density=0.2, format="csr", random_state=3)
x = np.random.default_rng(4).normal(size=40)
xa = np.zeros(40)
prop.csc_matvec(40, 40, m.indptr, m.indices, m.data, x, xa)
assert np.array_equal(prop.CSR(m.indptr, m.indices, m.data) @ x, m @ x)
assert np.array_equal(xa, x @ m)
assert sys.modules["scipy.sparse._sparsetools"].csr_matvec is prop.csr_matvec
"""


@pytest.mark.parametrize("first, second", [
    ("rydsim.propagate", "scipy.sparse"),
    ("scipy.sparse", "rydsim.propagate")],
    ids=["kernel-first", "scipy-first"])
def test_kernel_matches_scipy_products(first, second, child_env):
    subprocess.run([sys.executable, "-c", KERNEL_CHECK.format(first, second)],
                   check=True, env=child_env)
