import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from rydsim import classical
from rydsim.classical import (ClassicalEngineError, NeighborTable, Trajectory,
                              classical_generator, ensemble_average,
                              evolve_classical, evolve_classical_exact,
                              gillespie_ensemble, gillespie_run,
                              probability_from_configuration)
from rydsim.devices import (DELTA_F, GAS_PARAMS, build_gas_switch,
                            build_nand_gate, build_switch_chain)
from rydsim.geometry import build_chain
from rydsim.model import (AtomNetwork, Configuration, SimParams, basis_bits,
                          pair_energies)
from rydsim.propagate import CSR
from records import to_record, to_scipy


def single_atom(detuning=0.0):
    return AtomNetwork([[0, 0, 0]], [detuning], 10.0)


def transition_rate(k, config, network, params):
    """Rate at which atom k flips out of `config`: the generator's entry
    from config to config with bit k flipped."""
    c = config.to_index()
    return to_scipy(classical_generator(network, params)[0])[c ^ (1 << k), c]


class TestTransitionRate:
    def test_resonant_rate_is_maximal(self):
        params = SimParams(1.0, 1.0, 0.0)
        assert transition_rate(0, Configuration((0,)), single_atom(), params) == 4.0
        # facilitated neighbor hits the same maximum
        net = build_chain([1.0], [-10.0, -10.0], 10.0)
        assert transition_rate(1, Configuration((1, 0)), net, params) == pytest.approx(4.0)

    def test_detuned_rate(self):
        net = build_chain([1.0], [-10.0, -10.0], 10.0)
        params = SimParams(1.0, 1.0, 0.0)
        assert transition_rate(1, Configuration((0, 0)), net, params) == \
            pytest.approx(1.0 / 100.25)

    def test_rate_bounds(self):
        rng = np.random.default_rng(5)
        params = SimParams(1.3, 0.7, 0.0)
        cap = 4 * params.omega**2 / params.gamma
        net = build_chain([1.0, 1.4, 0.9], rng.normal(scale=8, size=4), 10.0)
        for _ in range(50):
            config = Configuration(tuple(rng.integers(0, 2, size=4)))
            k = int(rng.integers(0, 4))
            rate = transition_rate(k, config, net, params)
            assert 0 < rate <= cap + 1e-12

    def test_gamma_zero_rejected(self):
        with pytest.raises(ClassicalEngineError):
            transition_rate(0, Configuration((0,)), single_atom(),
                            SimParams(1.0, 0.0, 0.0))

    def test_large_gas_needs_no_interaction_matrix(self, monkeypatch):
        from rydsim.devices import GAS_PARAMS, build_gas_switch
        net = build_gas_switch(True, seed=1).network

        def refuse(self):
            raise AssertionError("(N, N) interaction matrix built")
        monkeypatch.setattr(AtomNetwork, "interaction_matrix", refuse)
        bits = np.zeros(net.n_atoms, dtype=int)
        bits[::50] = 1
        k = 7
        r = np.linalg.norm(net.positions[bits == 1] - net.positions[k], axis=1)
        expected = net.static_detunings[k] + np.sum(net.c6 / r**6)
        # the sampler's starting mismatches: detunings plus pair sums
        mismatch = (net.static_detunings
                    + pair_energies(net, np.flatnonzero(bits)).sum(axis=0))
        assert mismatch[k] == pytest.approx(expected, rel=1e-9)
        config = Configuration(tuple(bits))
        ts = gillespie_ensemble(net, GAS_PARAMS, config, 0.5, 2, 0,
                                np.array([0.25, 0.5]), (k,))
        assert ts.metadata["events_mean"] > 0


class TestClassicalGenerator:
    def test_single_atom_resonant(self):
        gen, _ = classical_generator(single_atom(), SimParams(1.0, 1.0, 0.0))
        np.testing.assert_allclose(to_scipy(gen).toarray(), [[-4, 4], [4, -4]])

    def test_weak_drive_pure_decay(self):
        kappa = 0.5
        gen, _ = classical_generator(single_atom(), SimParams(1e-9, 1.0, kappa))
        np.testing.assert_allclose(to_scipy(gen).toarray(),
                                   [[0, kappa], [0, -kappa]],
                                   atol=1e-12)

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            gaps = rng.uniform(0.8, 1.5, size=2)
            net = build_chain(gaps, rng.normal(scale=8, size=3), 10.0)
            gen, _ = classical_generator(net, SimParams(1.0, 1.0, 0.003))
            colsums = np.asarray(to_scipy(gen).sum(axis=0)).ravel()
            np.testing.assert_allclose(colsums, 0.0, atol=1e-12)

    def test_rows_match_the_column_construction(self):
        # filled row by row (diagonal, then the N flips), the generator has
        # the same entries as when each column c held its outflow and
        # rate_k(c) at c ^ 2^k, built in CSC and converted
        rng = np.random.default_rng(10)
        nets = [build_nand_gate((1, 0)).network, single_atom(-3.0),
                build_chain(rng.uniform(0.8, 1.5, 4), rng.normal(scale=8, size=5),
                            10.0)]
        for net, params in zip(nets, [SimParams(1.0, 1.0, 0.003),
                                      SimParams(1.0, 1.0, 0.5),
                                      SimParams(1.3, 0.7, 0.1)]):
            n = net.n_atoms
            bits = basis_bits(n)
            v = net.interaction_matrix()
            rates = np.column_stack([
                classical._rates(net.static_detunings[k] + bits @ v[k],
                                 bits[:, k], params) for k in range(n)])
            rows = np.arange(1 << n)[:, None] ^ np.array([0, *(1 << np.arange(n))])
            data = np.column_stack([-rates.sum(axis=1), rates])
            expected = sp.csc_matrix((data.ravel(), rows.ravel(),
                                      np.arange(0, data.size + 1, n + 1)),
                                     shape=(1 << n, 1 << n)).tocsr()
            gen, _ = classical_generator(net, params)
            assert isinstance(gen, CSR)
            assert gen.indptr.dtype == gen.indices.dtype == np.int32
            np.testing.assert_array_equal(to_scipy(gen).toarray(),
                                          expected.toarray())
            np.testing.assert_array_equal(
                gen.indices.reshape(1 << n, n + 1), rows)

    def test_capacity(self):
        n = 15
        pos = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
        net = AtomNetwork(pos, np.zeros(n), 10.0)
        with pytest.raises(ClassicalEngineError):
            classical_generator(net, SimParams(1.0, 1.0, 0.0))


class TestEvolveClassicalExact:
    def test_two_state_relaxation(self):
        pair = classical_generator(single_atom(), SimParams(1.0, 1.0, 0.0))
        ts = evolve_classical_exact(np.array([1.0, 0.0]), lambda t0: pair,
                                    2.0, output_sites=(0,))
        np.testing.assert_allclose(ts.output_count,
                                   0.5 * (1 - np.exp(-8 * ts.times)),
                                   atol=1e-8)

    def test_uniform_is_stationary_without_decay(self):
        net = build_chain([1.0, 1.1], [-10.0, -4.0, 2.0], 10.0)
        gen, _ = classical_generator(net, SimParams(1.0, 1.0, 0.0))
        p = np.full(8, 1 / 8)
        np.testing.assert_allclose(gen @ p, 0.0, atol=1e-14)

    def test_normalization_preserved(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        built = classical_generator(net, SimParams(1.0, 1.0, 0.003))
        p0 = probability_from_configuration(Configuration((1, 0, 0)))
        ts = evolve_classical_exact(p0, lambda t0: built, 4.0)
        assert abs(ts.final_state.sum() - 1.0) < 1e-9
        assert ts.final_state.min() > -1e-10

    def test_rejects_unnormalized(self):
        pair = classical_generator(single_atom(), SimParams(1.0, 1.0, 0.0))
        with pytest.raises(ClassicalEngineError):
            evolve_classical_exact(np.array([0.7, 0.0]), lambda t0: pair, 1.0)

    def test_leaking_generator_raises(self):
        # columns that do not sum to zero lose probability; the column-sum
        # check also catches a leak far too slow for the norm drift to reveal
        for loss in (0.5, 1e-6):
            leak = to_record([[-1.0, 0.0], [1.0 - loss, 0.0]])
            with pytest.raises(ClassicalEngineError, match="trace_leak"):
                evolve_classical_exact(np.array([1.0, 0.0]),
                                       lambda t0: (leak, (-1.5, 0.5, 0.5)), 1.0)

    def test_residuals_in_metadata(self):
        pair = classical_generator(single_atom(), SimParams(1.0, 1.0, 0.1))
        ts = evolve_classical_exact(np.array([1.0, 0.0]), lambda t0: pair, 2.0)
        assert ts.times.size == 200
        for key in ("norm_drift", "negativity", "trace_leak"):
            assert 0.0 <= ts.metadata[key] < 1e-12


def neighbors(table, k):
    """Atoms paired with atom k in the table, and their pair energies."""
    lo, hi = table.indptr[k], table.indptr[k + 1]
    return table.indices[lo:hi], table.energies[lo:hi]


class TestNeighborTable:
    def test_symmetry(self):
        rng = np.random.default_rng(13)
        pos = rng.uniform(0, 10, size=(40, 3))
        net = AtomNetwork(pos, np.zeros(40), 100.0)
        table = NeighborTable(net, interaction_floor=0.05)
        pairs = set()
        for i in range(40):
            nbr, en = neighbors(table, i)
            assert np.all(en > 0.05)
            for j in nbr:
                pairs.add((i, int(j)))
        assert all((j, i) in pairs for i, j in pairs)

    def test_cutoff_radius(self):
        net = build_chain([1.0], [0.0, 0.0], 10.0)
        table = NeighborTable(net, interaction_floor=10.0)
        assert table.cutoff == pytest.approx(1.0)

    def test_rejects_bad_floor(self):
        with pytest.raises(ClassicalEngineError):
            NeighborTable(single_atom(), interaction_floor=0.0)

    def test_cutoff_rates_match_full_sum(self):
        # default cutoff changes no per-atom rate by more than 1 percent
        # compared with summing the interaction over every pair
        from rydsim.classical import _rates
        from rydsim.devices import GAS_PARAMS, build_gas_switch
        dev = build_gas_switch(on=True, seed=2, n_atoms=3000)
        net, params = dev.network, GAS_PARAMS
        rng = np.random.default_rng(4)
        bits = (rng.uniform(size=net.n_atoms) < 0.05).astype(float)
        table = NeighborTable(net, 0.01 * params.gamma)
        mism = net.static_detunings.astype(float).copy()
        for k in np.nonzero(bits)[0]:
            nbr, en = neighbors(table, int(k))
            mism[nbr] += en
        r_table = _rates(mism, bits, params)
        full = net.static_detunings + net.interaction_matrix() @ bits
        r_full = _rates(full, bits, params)
        assert np.max(np.abs(r_table - r_full) / r_full) < 0.01


class TestGillespie:
    def test_pure_decay_flip_times(self):
        kappa = 2.0
        params = SimParams(1e-4, 1.0, kappa)
        net = single_atom()
        flips = []
        for i in range(2000):
            traj = gillespie_run(net, params, Configuration((1,)), 10.0,
                                 seed=[3, i])
            assert traj.events, "excited atom should decay within t=10"
            flips.append(traj.events[0][0])
        mean = np.mean(flips)
        tol = 3.0 / (kappa * np.sqrt(len(flips)))
        assert abs(mean - 1 / kappa) < tol

    def test_long_time_occupation_balance(self):
        # single resonant atom flips between states at equal rates
        params = SimParams(1.0, 1.0, 0.0)
        net = single_atom()
        samples = 2000
        ens = gillespie_ensemble(net, params, Configuration((0,)), 5.0,
                                 samples, 17, [5.0], output_sites=(0,))
        frac = ens.output_count[-1]
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / samples)

    def test_matches_exact_propagator(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        params = SimParams(1.0, 1.0, 0.003)
        config0 = Configuration((1, 0, 0))
        times = np.linspace(0.1, 4.0, 40)
        ens = gillespie_ensemble(net, params, config0, 4.0, 4000, 99,
                                 times, output_sites=(2,))
        exact = evolve_classical(net, params, config0, 4.0,
                                 output_sites=(2,)).resample(times)
        assert np.max(np.abs(ens.site_density - exact.site_density)) < 0.03

    def test_reproducible_per_seed(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        params = SimParams(1.0, 1.0, 0.003)
        t1 = gillespie_run(net, params, Configuration((1, 0, 0)), 4.0, seed=[1, 2])
        t2 = gillespie_run(net, params, Configuration((1, 0, 0)), 4.0, seed=[1, 2])
        assert t1.events == t2.events

    def test_gamma_zero_rejected(self):
        with pytest.raises(ClassicalEngineError):
            gillespie_run(single_atom(), SimParams(1.0, 0.0, 0.0),
                          Configuration((0,)), 1.0, seed=0)

    def test_schedule_changes_rates(self):
        # detuning far off resonance until t=5 suppresses all flips
        from rydsim.model import DetuningSchedule
        net = single_atom(detuning=0.0)
        sched = DetuningSchedule(((0.0, 5.0, 0, 1e6),))
        params = SimParams(1.0, 1.0, 0.0)
        flips_before = 0
        for i in range(50):
            traj = gillespie_run(net, params, Configuration((0,)), 6.0,
                                 seed=[23, i], schedule=sched)
            flips_before += sum(1 for t, _, _ in traj.events if t < 5.0)
        assert flips_before == 0


class TestGillespieEnsemble:
    net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
    params = SimParams(1.0, 1.0, 0.003)
    config0 = Configuration((1, 0, 0))
    times = np.linspace(0.1, 4.0, 40)

    def sample(self, m, seed):
        return gillespie_ensemble(self.net, self.params, self.config0, 4.0,
                                  m, seed, self.times, output_sites=(2,))

    def exact(self):
        return evolve_classical(self.net, self.params, self.config0, 4.0,
                                output_sites=(2,)).resample(self.times)

    def test_seed_replays_bit_identically(self):
        a, b, c = self.sample(300, 5), self.sample(300, 5), self.sample(300, 6)
        assert np.array_equal(a.site_density, b.site_density)
        assert np.array_equal(a.output_stderr, b.output_stderr)
        assert not np.array_equal(a.site_density, c.site_density)

    def test_scheduled_device_matches_exact(self):
        # the NAND gate's NOT atom (3) is pulsed onto resonance mid-run
        dev = build_nand_gate((1, 1))
        ens = gillespie_ensemble(dev.network, self.params, dev.initial, 4.0,
                                 4000, 99, self.times, dev.output_sites,
                                 schedule=dev.schedule)
        exact = evolve_classical(dev.network, self.params, dev.initial, 4.0,
                                 schedule=dev.schedule,
                                 output_sites=dev.output_sites)
        diff = ens.site_density - exact.resample(self.times).site_density
        assert np.max(np.abs(diff)) < 0.03

    def test_blocks_replay_and_match_exact(self, monkeypatch):
        monkeypatch.setattr(classical, "BLOCK_ELEMENTS", 3 * 500)
        a, b = self.sample(4000, 99), self.sample(4000, 99)
        assert a.metadata["blocks"] == 8
        assert np.array_equal(a.site_density, b.site_density)
        assert np.array_equal(a.output_stderr, b.output_stderr)
        assert np.max(np.abs(a.site_density - self.exact().site_density)) < 0.03

    def test_work_counters(self):
        # an excited atom under a negligible drive decays once, and only once
        ens = gillespie_ensemble(single_atom(), SimParams(1e-4, 1.0, 2.0),
                                 Configuration((1,)), 20.0, 50, 3,
                                 np.array([10.0, 20.0]), output_sites=(0,))
        assert ens.metadata["events_mean"] == 1.0
        assert ens.metadata["events_max"] == 1
        assert ens.metadata["blocks"] == 1
        np.testing.assert_array_equal(ens.output_count, 0.0)


class TestEnsembleAverage:
    def test_single_trajectory_mean(self):
        traj = Trajectory(Configuration((1, 0)), [(0.5, 1, 1)], 2.0)
        times = np.array([0.25, 1.0, 2.0])
        ts = ensemble_average([traj], times, output_sites=(1,), n_atoms=2)
        np.testing.assert_allclose(ts.output_count, [0, 1, 1])
        np.testing.assert_allclose(ts.output_stderr, 0.0)

    def test_mirrored_trajectories(self):
        ground = Trajectory(Configuration((0, 0, 0)), [], 1.0)
        excited = Trajectory(Configuration((1, 1, 1)), [], 1.0)
        times = np.array([0.5, 1.0])
        ts = ensemble_average([ground, excited], times,
                              output_sites=(0, 1, 2), n_atoms=3)
        np.testing.assert_allclose(ts.output_count, 1.5)

    def test_stderr_scaling(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        params = SimParams(1.0, 1.0, 0.003)
        times = np.linspace(0.5, 4.0, 20)
        mean_err = {}
        for m in (30, 120, 480):
            ts = gillespie_ensemble(net, params, Configuration((1, 0, 0)),
                                    4.0, m, 7, times, output_sites=(1, 2))
            mean_err[m] = float(np.mean(ts.output_stderr))
        assert mean_err[30] / mean_err[120] == pytest.approx(2.0, rel=0.2)
        assert mean_err[120] / mean_err[480] == pytest.approx(2.0, rel=0.2)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ClassicalEngineError):
            ensemble_average([], np.array([1.0]), (0,), 1)


def test_trajectory_rejects_decreasing_times():
    with pytest.raises(ClassicalEngineError):
        Trajectory(Configuration((0,)), [(1.0, 0, 1), (0.5, 0, 0)], 2.0)


# Taken from the sampler as it was before its event step wrote into
# preallocated buffers: (digest of site density, N_o and stderr,
# events_mean, events_max, blocks); the event log's (length, digest).
SWITCH_PIN = ("1376a86683b937bc8f1a60e9b6404b5b"
              "3d0c23bc1268b97bf37d59844ff9583c", 83.884, 135, 1)
NAND_PINS = {
    (0, 0): ("e10fc3bdefe3c874a0543b7833eb9db9"
             "1ec6a8d4871263a4eeab175b9f0f3e62", 11.655, 66, 1),
    (0, 1): ("2409a9704a91f236f6e7864e6b0e3d80"
             "2badcf48ed132c3c416d732f151c9e73", 40.305, 74, 1),
    (1, 0): ("075b78fa8c05cf4b953f4716cf1302e2"
             "9dfa012fb44d1cd924a444d26a4d9437", 38.24, 79, 1),
    (1, 1): ("687c305f2b24d2510b619e597fee5af6"
             "60ab63aeb06cbd22b7bce0f5e50e4352", 50.31, 86, 1),
}
GAS_PIN = ("239990c29f2392ee6f0c9194d9749a96"
           "c4d9aa7972d4fa17c401945518cbbc96", 43.0, 65, 3)
EVENT_LOG_PIN = (72, "65bc675172053946ce92f0e7ca1e65d4"
                     "d8feb9e02dcb880f630a322716716347")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestLockstepPinned:
    """The sampler's output is pinned bit for bit: site density, N_o and
    its standard error, and the event counters, for a seed."""

    params = SimParams(1.0, 1.0, 0.003)
    times = np.linspace(8.0 / 200, 8.0, 200)

    @staticmethod
    def pin(ts):
        m = ts.metadata
        return (digest(ts.site_density, ts.output_count, ts.output_stderr),
                m["events_mean"], m["events_max"], m["blocks"])

    def test_switch_at_resonance(self):
        dev = build_switch_chain(DELTA_F, 1.0)
        ts = gillespie_ensemble(dev.network, self.params, dev.initial, 8.0,
                                1000, 3, self.times, dev.output_sites)
        assert self.pin(ts) == SWITCH_PIN

    @pytest.mark.parametrize("bits", sorted(NAND_PINS))
    def test_nand_breakpoint_redraw(self, bits):
        dev = build_nand_gate(bits)
        ts = gillespie_ensemble(dev.network, self.params, dev.initial, 8.0,
                                200, 5, self.times, dev.output_sites,
                                schedule=dev.schedule)
        assert self.pin(ts) == NAND_PINS[bits]

    def test_gas_over_blocks(self, monkeypatch):
        dev = build_gas_switch(True, 7, 400)
        monkeypatch.setattr(classical, "BLOCK_ELEMENTS", 3 * 400)
        times = np.linspace(100.0 / 200, 100.0, 200)
        ts = gillespie_ensemble(dev.network, GAS_PARAMS, dev.initial, 100.0,
                                8, 11, times, dev.output_sites)
        assert self.pin(ts) == GAS_PIN

    def test_event_log(self):
        dev = build_nand_gate((1, 0))
        traj = gillespie_run(dev.network, self.params, dev.initial, 8.0, 9,
                             dev.schedule)
        assert (len(traj.events), digest(traj.events)) == EVENT_LOG_PIN
