import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rydsim import classical
from rydsim.classical import (ClassicalEngineError, NeighborTable, Trajectory,
                              classical_generator, ensemble_average,
                              evolve_classical_exact, gillespie_ensemble,
                              gillespie_run)
from rydsim.devices import (DELTA_F, GAS_C6, GAS_DELTA_F, GAS_PARAMS,
                            GAS_R_F, build_gas_switch, build_nand_gate,
                            build_switch_chain, build_transport_chain)
from rydsim.geometry import build_chain
from rydsim.model import (AtomNetwork, Configuration, DetuningSchedule,
                          SimParams, basis_bits, pair_energies)
from rydsim.propagate import CSR, propagate
from records import to_record, to_scipy
from test_acceptance import run_check


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
        net = build_gas_switch(seed=1)[0].network

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
        ts = gillespie_ensemble(net, GAS_PARAMS, config, 2, 0,
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
        run_check("two-state-relaxation")

    def test_uniform_is_stationary_without_decay(self):
        net = build_chain([1.0, 1.1], [-10.0, -4.0, 2.0], 10.0)
        gen, _ = classical_generator(net, SimParams(1.0, 1.0, 0.0))
        p = np.full(8, 1 / 8)
        np.testing.assert_allclose(gen @ p, 0.0, atol=1e-14)

    def test_normalization_preserved(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        ts = evolve_classical_exact(net, SimParams(1.0, 1.0, 0.003),
                                    Configuration((1, 0, 0)), 4.0)
        assert abs(ts.final_state.sum() - 1.0) < 1e-9
        assert ts.final_state.min() > -1e-10

    def test_rejects_unnormalized(self):
        # the t = 0 record refuses a start that is no probability vector
        pair = classical_generator(single_atom(), SimParams(1.0, 1.0, 0.0))
        for p0, residual in (([0.7, 0.0], "norm_drift"),
                             ([1.2, -0.2], "negativity")):
            with pytest.raises(ClassicalEngineError,
                               match=f"at t=0.000: .*{residual}"):
                propagate(np.array(p0), lambda det: pair, [(0.0, 1.0, None)],
                          "classical-exact", ClassicalEngineError)

    def test_rejects_configuration_of_other_length(self):
        with pytest.raises(ClassicalEngineError, match="length mismatch"):
            evolve_classical_exact(single_atom(), SimParams(1.0, 1.0, 0.0),
                                   Configuration((0, 0)), 1.0)

    def test_cap_refused_before_the_probability_vector(self):
        # 2^40 doubles would take 8 TiB: the cap is checked before any
        # such allocation
        dev = build_transport_chain(40)
        with pytest.raises(ClassicalEngineError, match="exceeds"):
            evolve_classical_exact(dev.network, SimParams(1.0, 1.0, 0.0),
                                   dev.initial, 1.0)

    def test_leaking_generator_raises(self):
        # columns that do not sum to zero lose probability; the column-sum
        # check also catches a leak far too slow for the norm drift to reveal
        for loss in (0.5, 1e-6):
            leak = to_record([[-1.0, 0.0], [1.0 - loss, 0.0]])
            with pytest.raises(ClassicalEngineError, match="trace_leak"):
                propagate(np.array([1.0, 0.0]),
                          lambda det: (leak, (-1.5, 0.5, 0.5)),
                          [(0.0, 1.0, None)], "classical-exact",
                          ClassicalEngineError)

    def test_residuals_in_metadata(self):
        ts = evolve_classical_exact(single_atom(), SimParams(1.0, 1.0, 0.1),
                                    Configuration((0,)), 2.0)
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
        dev, _ = build_gas_switch(seed=2, n_atoms=3000)
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
        ens = gillespie_ensemble(net, params, Configuration((0,)), samples,
                                 17, [5.0], output_sites=(0,))
        frac = ens.output_count[-1]
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / samples)

    def test_matches_exact_propagator(self):
        net = build_chain([1.0, 1.0], [-10.0] * 3, 10.0)
        params = SimParams(1.0, 1.0, 0.003)
        config0 = Configuration((1, 0, 0))
        times = np.linspace(0.1, 4.0, 40)
        ens = gillespie_ensemble(net, params, config0, 4000, 99,
                                 times, output_sites=(2,))
        exact = evolve_classical_exact(net, params, config0, 4.0,
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
        return gillespie_ensemble(self.net, self.params, self.config0, m,
                                  seed, self.times, output_sites=(2,))

    def exact(self):
        return evolve_classical_exact(self.net, self.params, self.config0,
                                      4.0, output_sites=(2,)
                                      ).resample(self.times)

    def test_seed_replays_bit_identically(self):
        a, b, c = self.sample(300, 5), self.sample(300, 5), self.sample(300, 6)
        assert np.array_equal(a.site_density, b.site_density)
        assert np.array_equal(a.output_stderr, b.output_stderr)
        assert not np.array_equal(a.site_density, c.site_density)

    def test_scheduled_device_matches_exact(self):
        # the NAND gate's NOT atom (3) is pulsed onto resonance mid-run
        dev = build_nand_gate((1, 1))
        ens = gillespie_ensemble(dev.network, self.params, dev.initial, 4000,
                                 99, self.times, dev.output_sites,
                                 schedule=dev.schedule)
        exact = evolve_classical_exact(dev.network, self.params, dev.initial,
                                       4.0, schedule=dev.schedule,
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

    def test_blocks_match_exact_within_standard_errors(self, monkeypatch):
        # a seed does not replay across block sizes (block b draws from
        # stream (seed, b)), so across blocks the statistics must hold:
        # 8 blocks of 500 trajectories against the exact engine, within
        # the gas oracle's bound.  Seeds 0-4 read at most 2.5-3.9; every
        # block drawing from stream (seed, 0) reads 6.4-9.2.
        monkeypatch.setattr(classical, "BLOCK_ELEMENTS", 3 * 500)
        dev, m = build_transport_chain(3), 4000
        exact = evolve_classical_exact(dev.network, self.params, dev.initial,
                                       4.0, output_sites=dev.output_sites)
        rows = np.arange(5, 200, 5)
        ens = gillespie_ensemble(dev.network, self.params, dev.initial, m, 0,
                                 exact.times[rows], dev.output_sites)
        assert ens.metadata["blocks"] == 8
        p = exact.site_density[rows]
        se = np.sqrt(np.maximum(p * (1 - p), 1.0 / m) / m)
        z_out = ((ens.output_count - exact.output_count[rows])
                 / np.maximum(ens.output_stderr, 1.0 / m))
        z_max = TestGasClusterOracle.Z_MAX
        assert np.abs((ens.site_density - p) / se).max() <= z_max
        assert np.abs(z_out).max() <= z_max

    def test_work_counters(self):
        # an excited atom under a negligible drive decays once, and only
        # once: every trajectory fires in the one event step
        ens = gillespie_ensemble(single_atom(), SimParams(1e-4, 1.0, 2.0),
                                 Configuration((1,)), 50, 3,
                                 np.array([10.0, 20.0]), output_sites=(0,))
        assert ens.metadata["events_mean"] == 1.0
        assert ens.metadata["events_max"] == 1
        assert ens.metadata["blocks"] == 1
        assert ens.metadata["steps"] == 1
        np.testing.assert_array_equal(ens.output_count, 0.0)

    @pytest.mark.parametrize("device", ["switch", "nand"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_one_trajectory_records_its_event_log(self, device, seed):
        # a one-trajectory ensemble draws the stream of gillespie_run, and
        # its records must be what the event log gives on the same grid
        dev = (build_switch_chain(DELTA_F) if device == "switch"
               else build_nand_gate((1, 0)))
        times = np.linspace(8.0 / 200, 8.0, 200)
        ens = gillespie_ensemble(dev.network, self.params, dev.initial, 1,
                                 seed, times, dev.output_sites,
                                 schedule=dev.schedule)
        traj = gillespie_run(dev.network, self.params, dev.initial, 8.0,
                             [seed, 0], dev.schedule)
        ref = ensemble_average([traj], times, dev.output_sites,
                               dev.network.n_atoms)
        assert ens.metadata["events_max"] == len(traj.events) > 10
        for name in ("site_density", "output_count", "output_stderr"):
            assert np.array_equal(getattr(ens, name), getattr(ref, name))

    @pytest.mark.parametrize("times", [[1.0, 1.0], [2.0, 1.0], [-0.5, 1.0],
                                       [np.nan], [], [[1.0]]],
                             ids=["repeated", "decreasing", "negative",
                                  "nan", "empty", "2d"])
    def test_refuses_bad_record_times(self, times):
        # each event is filed at the first record time after it, which
        # only an increasing grid from t >= 0 gives
        with pytest.raises(ClassicalEngineError, match="strictly increasing"):
            gillespie_ensemble(self.net, self.params, self.config0, 10, 0,
                               np.array(times), output_sites=(2,))


class GivenU:
    """Stands in for the sampler's rng in `classical._draw`, which takes u
    as rng.random(k) * total: random(k) returns the stand-in, whose product
    with the rows' totals is u(total)."""

    def __init__(self, u):
        self.u = u

    def random(self, k):
        return self

    def __mul__(self, total):
        return self.u(total)


class TestDraw:
    """The sampler's atom draw: past DRAW_BLOCK atoms a block, then an atom
    inside it, against the flat search of one cumulative sum."""

    @staticmethod
    def draw(rates, u):
        # read-only, so a draw that wrote its rates would raise
        rates = np.array(rates, dtype=float)
        rates.setflags(write=False)
        return classical._draw(rates, GivenU(u))

    @staticmethod
    def block_ends(rates):
        """Cumulative block sums, as the draw takes them."""
        starts = np.arange(0, rates.shape[1], classical.DRAW_BLOCK)
        return np.cumsum(np.add.reduceat(rates, starts, axis=1), axis=1)

    @pytest.mark.parametrize("n", [65, 200, 3000])
    def test_two_level_matches_flat_search(self, n):
        # each n ends in a partial block (65 = 64 + 1, 200 = 3 x 64 + 8,
        # 3000 = 46 x 64 + 56)
        assert n > classical.DRAW_BLOCK and n % classical.DRAW_BLOCK
        rng = np.random.default_rng(n)
        rates = rng.exponential(size=(400, n)) * rng.uniform(0.1, 10.0, n)
        frac = rng.random(400)
        flat = np.cumsum(rates, axis=1)
        expect = (flat >= (frac * flat[:, -1])[:, None]).argmax(axis=1)
        atoms = self.draw(rates, lambda total: frac * total)
        np.testing.assert_array_equal(atoms, expect)

    @pytest.mark.parametrize("n", [6, 64])
    def test_flat_search_reads_its_rates_only(self, n):
        # a row of at most DRAW_BLOCK atoms takes the first atom whose
        # cumulative rate reaches u, with the sums in scratch of its own
        rng = np.random.default_rng(n)
        rates = rng.exponential(size=(50, n))
        frac = rng.random(50)
        flat = np.cumsum(rates, axis=1)
        expect = (flat >= (frac * flat[:, -1])[:, None]).argmax(axis=1)
        np.testing.assert_array_equal(
            self.draw(rates, lambda total: frac * total), expect)

    def test_block_end_picks_its_last_atom_with_a_positive_rate(self):
        # u at block 0's and block 1's cumulative ends, and at the total
        # (the end of the partial last block); block 1 ends in three atoms
        # of rate 0
        rng = np.random.default_rng(3)
        rates = rng.exponential(size=(3, 200))
        rates[1, 125:128] = 0.0
        ends = self.block_ends(rates)
        u = np.array([ends[0, 0], ends[1, 1], ends[2, -1]])
        np.testing.assert_array_equal(self.draw(rates, lambda total: u),
                                      [63, 124, 199])

    def test_rounding_shortfall_picks_the_last_atom_with_a_positive_rate(self):
        # row 0, block 0: a rate of 1, then 59 of 2^-53, then 4 of 0; row
        # 1: rates only in the partial last block (atoms 192-199), 1 and
        # then 7 of 2^-53.  Added in order the small rates round away (the
        # block's cumulative rate ends at 1.0), while its block sum keeps
        # them, so u at the block's cumulative end lies past every
        # cumulative rate inside the block
        tiny = 2.0 ** -53
        rates = np.zeros((2, 200))
        rates[0] = 1.0
        rates[0, 1:60] = tiny
        rates[0, 60:64] = 0.0
        rates[1, 192] = 1.0
        rates[1, 193:] = tiny
        ends = self.block_ends(rates)
        u = np.array([ends[0, 0], ends[1, -1]])
        assert u[0] > np.cumsum(rates[0, :64])[-1]
        assert u[1] > np.cumsum(rates[1, 192:])[-1]
        np.testing.assert_array_equal(self.draw(rates, lambda total: u),
                                      [59, 199])


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
                                    m, 7, times, output_sites=(1, 2))
            mean_err[m] = float(np.mean(ts.output_stderr))
        assert mean_err[30] / mean_err[120] == pytest.approx(2.0, rel=0.2)
        assert mean_err[120] / mean_err[480] == pytest.approx(2.0, rel=0.2)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ClassicalEngineError):
            ensemble_average([], np.array([1.0]), (0,), 1)


def test_trajectory_rejects_decreasing_times():
    with pytest.raises(ClassicalEngineError):
        Trajectory(Configuration((0,)), [(1.0, 0, 1), (0.5, 0, 0)], 2.0)


# Taken from the sampler when its lockstep first synchronised only at
# segment ends, each event filing its own record: (digest of site density,
# N_o and stderr, events_mean, events_max, blocks, steps).  The event log's
# (length, digest) is older: one trajectory's stream did not change.
SWITCH_PIN = ("bfb27ec71a68abfba53825d506717c03"
              "42dc71b801a41c8dbcf0b2688cf710a9", 82.732, 134, 1, 134)
NAND_PINS = {
    (0, 0): ("a3c90162f1a31dbba4183aa0bff991af"
             "33e1294fe0330c4bec9484ccf9a3969f", 11.435, 70, 1, 74),
    (0, 1): ("92d770efa6cff125e851b96b86d735a0"
             "9ba5c46059668ab7790145c9df5ca409", 40.505, 72, 1, 90),
    (1, 0): ("adfb2e3ed514519e21aad2ced7b623bc"
             "2c127811a53268759ab28b45e6737285", 40.465, 71, 1, 93),
    (1, 1): ("09b48eb8f203f673ebf9464e00470ede"
             "0fdeb30bf8b8dae40d3ddbc2a7e8f8e8", 53.405, 83, 1, 99),
}
GAS_PIN = ("8060d07af8cc18b716ed4ce34b597bcd"
           "70707f243c9d62c5f7f793eb6d4d62c1", 45.75, 79, 3, 176)
# The off gas with its gate opened from t = 30 to 60, over three blocks:
# rows of 400 atoms take the two-level draw, and the pulse's two
# breakpoints redraw every pending event mid-run.
PULSE_PIN = ("47362d176356d14f79ac33d081a292d3"
             "acb297637e9e39dc3286b3bf41142a8b", 55.3, 73, 3, 220)
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
                m["events_mean"], m["events_max"], m["blocks"], m["steps"])

    @staticmethod
    def sample(*args, **kwargs):
        """The ensemble with its site records, once the same ensemble
        without them is seen to have no site columns and the same N_o,
        stderr and metadata, bit for bit."""
        ts = gillespie_ensemble(*args, **kwargs)
        bare = gillespie_ensemble(*args, **kwargs, site_density=False)
        assert bare.site_density.shape == (ts.times.size, 0)
        for name in ("output_count", "output_stderr"):
            assert getattr(bare, name).tobytes() == getattr(ts, name).tobytes()
        assert bare.metadata == ts.metadata
        return ts

    def test_switch_at_resonance(self):
        dev = build_switch_chain(DELTA_F)
        ts = self.sample(dev.network, self.params, dev.initial, 1000, 3,
                         self.times, dev.output_sites)
        assert self.pin(ts) == SWITCH_PIN

    @pytest.mark.parametrize("bits", sorted(NAND_PINS))
    def test_nand_breakpoint_redraw(self, bits):
        dev = build_nand_gate(bits)
        ts = self.sample(dev.network, self.params, dev.initial, 200, 5,
                         self.times, dev.output_sites, schedule=dev.schedule)
        assert self.pin(ts) == NAND_PINS[bits]

    def test_gas_over_blocks(self, monkeypatch):
        dev, _ = build_gas_switch(7, 400)
        monkeypatch.setattr(classical, "BLOCK_ELEMENTS", 3 * 400)
        times = np.linspace(100.0 / 200, 100.0, 200)
        ts = self.sample(dev.network, GAS_PARAMS, dev.initial, 8, 11,
                         times, dev.output_sites)
        assert self.pin(ts) == GAS_PIN

    def test_gas_gate_pulse_over_blocks(self, monkeypatch):
        _, dev = build_gas_switch(7, 400)
        gate = np.flatnonzero(dev.network.static_detunings == -GAS_DELTA_F)
        schedule = DetuningSchedule(tuple((30.0, 60.0, int(atom), GAS_DELTA_F)
                                          for atom in gate))
        monkeypatch.setattr(classical, "BLOCK_ELEMENTS", 4 * 400)
        times = np.linspace(100.0 / 200, 100.0, 200)
        ts = self.sample(dev.network, GAS_PARAMS, dev.initial, 10, 13,
                         times, dev.output_sites, schedule=schedule)
        assert self.pin(ts) == PULSE_PIN

    @pytest.mark.parametrize(
        "site_density, trajectories, bound_mib, block",
        [(False, 30, 3, None), (True, 30, 10, None), (True, 2, 6, None),
         (True, 30, 8, 3000 * 10)],
        ids=["False-30-3", "True-30-10", "True-2-6", "True-30-8-3-blocks"])
    def test_full_scale_gas_peak_memory(self, monkeypatch, site_density,
                                        trajectories, bound_mib, block):
        # fig4's sampler at 3000 atoms: its per-site sums alone are
        # 200 x 3000 doubles (4.6 MiB).  At 2 trajectories they are nearly
        # all of its memory, so one copy of them shows; in three blocks of
        # 10 trajectories, so does a second copy.  Without them, 30
        # trajectories hold three (30, 3000) float tables (rates, pair
        # energies, mismatches: 2.1 MiB), so a fourth shows.
        if block:
            monkeypatch.setattr(classical, "BLOCK_ELEMENTS", block)
        dev, _ = build_gas_switch(7)
        times = np.linspace(100.0 / 200, 100.0, 200)
        tracemalloc.start()
        try:
            gillespie_ensemble(dev.network, GAS_PARAMS, dev.initial,
                               trajectories, 7000, times, dev.output_sites,
                               site_density=site_density)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    def test_event_log(self):
        dev = build_nand_gate((1, 0))
        traj = gillespie_run(dev.network, self.params, dev.initial, 8.0, 9,
                             dev.schedule)
        assert (len(traj.events), digest(traj.events)) == EVENT_LOG_PIN


class TestGasClusterOracle:
    """The sampler against the exact engine in 3D, with the gas constants:
    a 2 x 2 x 3 cubic lattice at the facilitation distance, so that an atom
    with one excited nearest neighbour and no other excited atom is
    resonant, one corner excited, and that corner pulsed onto resonance
    mid-run, which the breakpoint redraw must follow."""

    M = 20000
    # |kmc - exact| in standard errors, over all 7 x 12 site densities and
    # 7 output counts: the benchmark's bound, fixed before any mutation
    # run.  A correct sampler read 2.6 at this seed; the sampler's rates
    # scaled by 1.1 or 0.9 read 8.0 and 8.8, the pair term of atoms 0 and 1
    # dropped from its event step 51, and no redraw at the breakpoint 23.
    Z_MAX = 5.0

    def test_matches_exact_engine(self):
        pos = GAS_R_F * np.array([(i, j, k) for k in range(3)
                                  for j in range(2) for i in range(2)], float)
        net = AtomNetwork(pos, np.full(12, GAS_DELTA_F), GAS_C6)
        config0 = Configuration((1,) + (0,) * 11)
        schedule = DetuningSchedule(((6.0, 12.0, 0, 0.0),))
        out, t_end = (8, 9, 10, 11), 20.0
        exact = evolve_classical_exact(net, GAS_PARAMS, config0, t_end,
                                       schedule, out)
        # row 199 (t = t_end) is checked too: the sampler runs to its
        # grid's last time
        rows = np.append(np.arange(25, 200, 25), 199)
        ens = gillespie_ensemble(net, GAS_PARAMS, config0, self.M, 1,
                                 exact.times[rows], out, schedule=schedule)
        assert ens.metadata["events_mean"] >= 5
        p = exact.site_density[rows]
        # binomial standard errors, and at least 1/M where p is near 0
        se = np.sqrt(np.maximum(p * (1 - p), 1.0 / self.M) / self.M)
        z_sites = (ens.site_density - p) / se
        z_out = ((ens.output_count - exact.output_count[rows])
                 / np.maximum(ens.output_stderr, 1.0 / self.M))
        assert np.abs(z_sites).max() <= self.Z_MAX
        assert np.abs(z_out).max() <= self.Z_MAX
