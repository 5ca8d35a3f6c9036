import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from rydsim import quantum
from rydsim.classical import classical_generator
from rydsim.devices import DELTA_F, build_switch_chain
from rydsim.geometry import build_chain
from rydsim.model import (AtomNetwork, Configuration, DetuningSchedule,
                          InputError, SimParams)
from rydsim.propagate import IntegrationError, propagate
from rydsim.quantum import (build_hamiltonian, density_from_configuration,
                            evolve_quantum, from_real, lindblad_rhs,
                            liouvillian, to_real)
from records import to_record, to_scipy
from test_acceptance import run_check


def single_atom(detuning=0.0):
    return AtomNetwork([[0, 0, 0]], [detuning], 10.0)


def dense(ham):
    """The Hamiltonian as a dense matrix: its diagonal plus omega on every
    single-bit flip."""
    idx = np.arange(ham.dim)
    h = np.diag(ham.diagonal.astype(complex))
    for k in range(ham.n_atoms):
        h[idx, idx ^ (1 << k)] += ham.omega
    return h


def dense_liouvillian(ham, params):
    """The complex Liouvillian on row-major vec(rho), from dense matrices:
    vec(a rho b) = kron(a, b^T) vec(rho)."""
    h, eye, idx = dense(ham), np.eye(ham.dim), np.arange(ham.dim)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for k in range(ham.n_atoms):
        up = (idx >> k) & 1
        lower = np.zeros((ham.dim, ham.dim))
        lower[idx[up == 0], idx[up == 0] | (1 << k)] = 1.0
        for c, rate in ((np.diag(up * 1.0), params.gamma),
                        (lower, params.kappa)):
            cc = c.T @ c
            lv += rate * (np.kron(c, c) - 0.5 * np.kron(cc, eye)
                          - 0.5 * np.kron(eye, cc.T))
    return lv


def random_network(rng, n):
    """n atoms on a line, 0.8-1.5 apart, with random detunings and C6."""
    gaps = np.cumsum(rng.uniform(0.8, 1.5, n))
    return AtomNetwork(np.outer(gaps, [1.0, 0.0, 0.0]), rng.uniform(-5, 5, n),
                       rng.uniform(0.5, 5.0))


def propagate_rho(network, params, rho, t_end, output_sites=()):
    """The quantum engine's propagation of any density matrix rho: its
    Liouvillian and rectangle, from rho's real coordinates."""
    ham = build_hamiltonian(network, network.static_detunings, params.omega)
    return propagate(to_real(rho), lambda det: liouvillian(ham, params),
                     [(0.0, t_end, None)], "quantum", output_sites,
                     populations=slice(None, None, ham.dim + 1))


def readout(rho, output_sites):
    """Site densities and output count of rho as the engine records them
    at t = 0."""
    n = rho.shape[0].bit_length() - 1
    net = AtomNetwork(np.arange(n)[:, None] * [[1e3, 0, 0]], np.zeros(n), 1.0)
    ts = propagate_rho(net, SimParams(1.0, 0.0, 0.0), rho, 0.1, output_sites)
    return ts.site_density[0], ts.output_count[0]


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBuildHamiltonian:
    def test_single_atom_is_rabi_drive(self):
        h = dense(build_hamiltonian(single_atom(), [0.0], omega=1.0))
        np.testing.assert_allclose(h, [[0, 1], [1, 0]])

    def test_facilitation_pair_diagonal(self):
        net = AtomNetwork([[0, 0, 0], [1, 0, 0]], [-10.0, -10.0], 10.0)
        ham = build_hamiltonian(net, net.static_detunings, omega=1.0)
        # E(up,up) = 2*delta_f + c6 = delta_f
        np.testing.assert_allclose(ham.diagonal, [0.0, -10.0, -10.0, -10.0])

    def test_far_separated_pair_spectrum(self):
        net = AtomNetwork([[0, 0, 0], [1e6, 0, 0]], [0.0, 0.0], 10.0)
        h = dense(build_hamiltonian(net, net.static_detunings, omega=1.0))
        # brute-force oracle: two independent sigma-x drives
        evals = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(evals, [-2, 0, 0, 2], atol=1e-12)

    def test_hermitian(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 5, size=(3, 3))
        net = AtomNetwork(pos, rng.normal(size=3), 10.0)
        h = dense(build_hamiltonian(net, net.static_detunings, omega=1.3))
        np.testing.assert_allclose(h, h.conj().T)

    def test_off_diagonal_count(self):
        # exactly N * 2^N off-diagonal nonzeros
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        h = dense(build_hamiltonian(net, net.static_detunings, omega=1.0))
        off = h - np.diag(np.diag(h))
        assert np.count_nonzero(off) == 3 * 8

    def test_capacity_error(self):
        # ATOM_CAP = 10 atoms build; one more is refused
        def line(n):
            return AtomNetwork(np.arange(n)[:, None] * [[1.0, 0.0, 0.0]],
                               np.zeros(n), 10.0)

        assert build_hamiltonian(line(10), np.zeros(10), 1.0).dim == 1 << 10
        with pytest.raises(InputError, match="N=11 exceeds"):
            build_hamiltonian(line(11), np.zeros(11), 1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       gamma=st.floats(0.0, 20.0), kappa=st.floats(0.0, 1.0))
def test_real_liouvillian_matches_complex(seed, n, gamma, kappa):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    params = SimParams(rng.uniform(0.2, 3.0), gamma, kappa)
    ham = build_hamiltonian(net, net.static_detunings, params.omega)
    a = rng.normal(size=(ham.dim,) * 2) + 1j * rng.normal(size=(ham.dim,) * 2)
    rho = a + a.conj().T
    x = to_real(rho)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(rho), rel=1e-14)
    np.testing.assert_allclose(from_real(x), rho, atol=1e-15)
    lv = dense_liouvillian(ham, params)
    np.testing.assert_allclose(from_real(liouvillian(ham, params)[0] @ x),
                               (lv @ rho.ravel()).reshape(rho.shape),
                               atol=1e-12)
    # lindblad_rhs also takes a non-Hermitian rho
    np.testing.assert_allclose(lindblad_rhs(a, ham, params),
                               (lv @ a.ravel()).reshape(a.shape), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       gamma=st.floats(0.1, 20.0))
def test_classical_rates_eliminate_the_coherences(seed, n, gamma):
    # the classical rate of flipping atom k in configuration i is the
    # coherence p = i << N | j, j = i ^ 2^k, adiabatically eliminated:
    # 2 omega^2 G2 / (G2^2 + dE^2), with its damping G2 = -R[p, p] and
    # energy difference dE = R[p, p^T] read off the Liouvillian (kappa = 0)
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    params = SimParams(rng.uniform(0.2, 3.0), gamma, 0.0)
    ham = build_hamiltonian(net, net.static_detunings, params.omega)
    r = to_scipy(liouvillian(ham, params)[0]).toarray()
    g = to_scipy(classical_generator(net, params)[0]).toarray()
    i = np.repeat(np.arange(ham.dim), n)
    j = i ^ np.tile(1 << np.arange(n), ham.dim)
    damping, gap = -r[i << n | j, i << n | j], r[i << n | j, j << n | i]
    np.testing.assert_allclose(
        2 * params.omega**2 * damping / (damping**2 + gap**2), g[j, i],
        rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       gamma=st.floats(0.1, 20.0), kappa=st.floats(0.0, 1.0))
def test_generators_are_covariant_under_atom_permutation(seed, n, gamma,
                                                         kappa):
    # relabelling the atoms by sigma (new atom j is old atom sigma(j))
    # moves bit sigma(j) of each basis index s to bit j: P.  The relabelled
    # network's classical generator is P G P^T, its Hamiltonian's diagonal
    # is permuted by P, and its Liouvillian maps P rho P^T to P L(rho) P^T
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    sigma = rng.permutation(n)
    moved = AtomNetwork(net.positions[sigma], net.static_detunings[sigma],
                        net.c6)
    params = SimParams(rng.uniform(0.2, 3.0), gamma, kappa)
    s = np.arange(1 << n)
    p = sum(((s >> int(sigma[j])) & 1) << j for j in range(n))

    def permuted(m):
        out = np.empty_like(m)
        out[np.ix_(p, p)] = m
        return out

    def generator(network):
        return to_scipy(classical_generator(network, params)[0]).toarray()
    np.testing.assert_allclose(generator(moved), permuted(generator(net)),
                               rtol=1e-12, atol=0)

    ham = build_hamiltonian(net, net.static_detunings, params.omega)
    ham_moved = build_hamiltonian(moved, moved.static_detunings, params.omega)
    np.testing.assert_allclose(ham_moved.diagonal[p], ham.diagonal,
                               rtol=1e-12,
                               atol=1e-12 * np.abs(ham.diagonal).max())

    # the real coordinates swap Re and Im where sigma reverses i < j, so
    # the Liouvillians are compared on a Hermitian rho, not entry by entry
    a = rng.normal(size=(ham.dim,) * 2) + 1j * rng.normal(size=(ham.dim,) * 2)
    rho = a + a.conj().T
    want = permuted(from_real(liouvillian(ham, params)[0] @ to_real(rho)))
    got = from_real(liouvillian(ham_moved, params)[0]
                    @ to_real(permuted(rho)))
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


class TestLindbladRhs:
    def test_maximally_mixed_is_dephasing_fixed_point(self):
        net = AtomNetwork([[0, 0, 0], [10, 0, 0]], [0.0, 0.0], 10.0)
        ham = build_hamiltonian(net, [0.0, 0.0], omega=0.0)
        rho = np.eye(4, dtype=complex) / 4
        out = lindblad_rhs(rho, ham, SimParams(1.0, 2.0, 0.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_pure_decay_generator(self):
        ham = build_hamiltonian(single_atom(), [0.0], omega=0.0)
        rho = np.diag([0.0, 1.0]).astype(complex)
        kappa = 0.7
        out = lindblad_rhs(rho, ham, SimParams(1.0, 0.0, kappa))
        np.testing.assert_allclose(np.diag(out).real, [kappa, -kappa])

    def test_trace_free_for_random_states(self):
        net = build_chain([1.0, 1.2], [-10.0, -5.0, 0.0], 10.0)
        ham = build_hamiltonian(net, net.static_detunings, omega=1.0)
        params = SimParams(1.0, 0.8, 0.05)
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_density_matrix(rng, 8)
            out = lindblad_rhs(rho, ham, params)
            assert abs(np.trace(out)) < 1e-10

    def test_shape_mismatch(self):
        ham = build_hamiltonian(single_atom(), [0.0], omega=1.0)
        with pytest.raises(InputError, match="rho shape does not match"):
            lindblad_rhs(np.eye(4, dtype=complex) / 4, ham, SimParams(1, 0, 0))


class TestEvolveQuantum:
    def test_rabi_oscillation(self):
        run_check("rabi")

    def test_strong_dephasing_steady_state(self):
        ts = evolve_quantum(single_atom(), SimParams(1.0, 20.0, 0.0),
                            Configuration((0,)), 30.0, output_sites=(0,))
        assert ts.output_count[-1] == pytest.approx(0.5, abs=1e-3)

    def test_purity_conserved_without_noise(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        ts = evolve_quantum(net, SimParams(1.0, 0.0, 0.0),
                            Configuration((1, 0, 0)), 4.0)
        rho = from_real(ts.final_state)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-6)

    def test_conservation_invariants(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        ts = evolve_quantum(net, SimParams(1.0, 1.0, 0.003),
                            Configuration((1, 0, 0)), 4.0)
        rho = from_real(ts.final_state)
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
        assert np.min(np.diag(rho).real) > -1e-8

    def test_permutation_covariance(self):
        rng = np.random.default_rng(11)
        # irregular but well-separated triangle
        pos = np.array([[0.0, 0.0, 0.0], [1.1, 0.2, 0.0], [0.4, 1.3, 0.5]])
        det = rng.normal(scale=5, size=3)
        net = AtomNetwork(pos, det, 10.0)
        perm = [2, 0, 1]
        net_p = AtomNetwork(pos[perm], det[perm], 10.0)
        ts = evolve_quantum(net, SimParams(1.0, 0.5, 0.01),
                            Configuration((1, 0, 0)), 2.0)
        bits = np.zeros(3, dtype=int)
        bits[perm.index(0)] = 1
        ts_p = evolve_quantum(net_p, SimParams(1.0, 0.5, 0.01),
                              Configuration(tuple(bits)), 2.0)
        np.testing.assert_allclose(ts_p.site_density[:, perm.index(1)],
                                   ts.site_density[:, 1], atol=1e-12)
        np.testing.assert_allclose(ts_p.site_density,
                                   ts.site_density[:, perm], atol=1e-12)

    def test_schedule_breakpoints_applied(self):
        # pi pulse on a lone atom: detuning 0 during the window, huge outside
        sched = DetuningSchedule(((1.0, 1.0 + np.pi / 2, 0, 0.0),))
        net = single_atom(detuning=-50.0)
        ts = evolve_quantum(net, SimParams(1.0, 0.0, 0.0),
                            Configuration((0,)), 3.0, schedule=sched,
                            output_sites=(0,))
        assert ts.value_at(0.99) < 0.01
        assert ts.value_at(1.0 + np.pi / 2) > 0.95

    def test_unphysical_initial_state_raises(self):
        rho = np.diag([1.5, 0.0]).astype(complex)
        with pytest.raises(IntegrationError, match=r"at t=0\.000: norm_drift"):
            propagate_rho(single_atom(), SimParams(1.0, 0.5, 0.01), rho, 1.0)

    def test_starts_from_the_probe_state(self, monkeypatch):
        # the kernel probe (bench/op.py) evaluates lindblad_rhs at
        # density_from_configuration: the engine starts from that state's
        # coordinates, byte for byte
        starts = []

        def recorded(x, *args, **kwargs):
            starts.append(x.copy())
            return propagate(x, *args, **kwargs)

        monkeypatch.setattr(quantum, "propagate", recorded)
        switch = build_switch_chain(DELTA_F)
        chain = build_chain([1.0, 1.2, 0.9], [-10.0, -5.0, 0.0, 3.0], 10.0)
        runs = [(single_atom(), Configuration((1,))),
                (chain, Configuration((1, 0, 1, 1))),
                (switch.network, switch.initial)]
        for net, config in runs:
            evolve_quantum(net, SimParams(1.0, 1.0, 0.003), config, 0.1)
            expected = to_real(density_from_configuration(config))
            assert starts[-1].dtype == expected.dtype
            assert starts[-1].tobytes() == expected.tobytes()
        assert len(starts) == len(runs)

    def test_leaking_liouvillian_raises(self, monkeypatch):
        # population column sums of 1e-6: far too slow a loss for the norm
        # drift to show within t_end
        def leaky(ham, params):
            r, rect = liouvillian(ham, params)
            return to_record(to_scipy(r) + 1e-6 * sp.eye(ham.dim ** 2)), rect
        monkeypatch.setattr(quantum, "liouvillian", leaky)
        with pytest.raises(IntegrationError, match="trace_leak"):
            evolve_quantum(single_atom(), SimParams(1.0, 0.5, 0.01),
                           Configuration((0,)), 1.0)

    def test_residuals_in_metadata(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        ts = evolve_quantum(net, SimParams(1.0, 0.5, 0.01),
                            Configuration((1, 0, 0)), 2.0)
        for key in ("norm_drift", "trace_leak", "negativity"):
            assert 0.0 <= ts.metadata[key] < 1e-10
        assert "hermiticity" not in ts.metadata
        # the vector propagate advanced: rho's 4^N real coordinates
        assert ts.final_state.shape == (64,)
        assert ts.final_state.dtype == float
        rho = from_real(ts.final_state)
        np.testing.assert_array_equal(rho, rho.conj().T)
        assert ts.times.size == 200


class TestMeasureOutput:
    def test_pure_states(self):
        rho = density_from_configuration(Configuration((0, 0, 0, 0)))
        assert readout(rho, (0, 1, 2, 3))[1] == 0.0
        rho = density_from_configuration(Configuration((1, 1, 1, 1)))
        assert readout(rho, (0, 1, 2, 3))[1] == 4.0

    def test_maximally_mixed(self):
        rho = np.eye(8, dtype=complex) / 8
        assert readout(rho, (0, 2))[1] == pytest.approx(1.0)

    def test_rejects_bad_site(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(IndexError):
            readout(rho, (5,))


def test_site_densities_basis_state():
    rho = density_from_configuration(Configuration((1, 0, 1)))
    np.testing.assert_allclose(readout(rho, ())[0], [1, 0, 1])
