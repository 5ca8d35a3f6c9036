import numpy as np
import pytest

from rydsim.model import (AtomNetwork, Configuration, DetuningSchedule,
                          ModelError, SimParams, UnitConversion,
                          blockade_radius, convert_units, facilitation_detuning,
                          facilitation_radius, local_mismatch,
                          DIMENSIONLESS, PHYSICAL)


def two_atom_network(spacing=1.0, c6=10.0, detunings=(-10.0, -10.0)):
    return AtomNetwork([[0, 0, 0], [spacing, 0, 0]], detunings, c6)


class TestFacilitationDetuning:
    def test_direct_formula(self):
        assert facilitation_detuning(1.0, 10.0) == -10.0

    def test_rubidium_parameters(self):
        # c6/(2pi) = 109 GHz um^6 at r_f = 5 um gives about -7 MHz
        value = facilitation_detuning(5.0, 109e9)
        assert value == pytest.approx(-6.976e6, rel=1e-3)
        assert abs(value) == pytest.approx(7e6, rel=0.01)

    def test_gas_parameters(self):
        # inverting -69.5 MHz at c6/(2pi) = 869 GHz um^6 pins r_f near 4.817
        assert facilitation_detuning(4.817, 869e9) == pytest.approx(-69.5e6, rel=1e-3)
        # the rounded 4.8 um is visibly inconsistent with -69.5 MHz
        assert facilitation_detuning(4.8, 869e9) == pytest.approx(-71.1e6, rel=1e-3)

    def test_rejects_non_positive(self):
        with pytest.raises(ModelError):
            facilitation_detuning(0.0, 10.0)
        with pytest.raises(ModelError):
            facilitation_detuning(1.0, -1.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.uniform(0.1, 20.0)
            c6 = rng.uniform(0.1, 1e12)
            assert facilitation_detuning(r, c6) * r**6 == pytest.approx(-c6, rel=1e-12)
            assert facilitation_radius(facilitation_detuning(r, c6), c6) == pytest.approx(r, rel=1e-12)


class TestBlockadeRadius:
    def test_values(self):
        assert blockade_radius(10.0, 1.0) == pytest.approx(10 ** (1 / 6))
        assert blockade_radius(1.0, 1.0) == 1.0

    def test_gas_value(self):
        # drive-based definition gives ~16.1 um for the gas parameters
        assert blockade_radius(869e9, 50e3) == pytest.approx(16.1, abs=0.05)

    def test_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c6 = rng.uniform(0.1, 100)
            omega = rng.uniform(0.1, 100)
            assert blockade_radius(c6 * 1.5, omega) > blockade_radius(c6, omega)
            assert blockade_radius(c6, omega * 1.5) < blockade_radius(c6, omega)

    def test_rejects_non_positive(self):
        with pytest.raises(ModelError):
            blockade_radius(-1.0, 1.0)
        with pytest.raises(ModelError):
            blockade_radius(1.0, 0.0)


class TestLocalMismatch:
    def test_isolated_atom(self):
        net = AtomNetwork([[0, 0, 0]], [0.0], 10.0)
        assert local_mismatch(0, Configuration((0,)), net) == 0.0

    def test_facilitated_pair_is_resonant(self):
        net = two_atom_network()
        assert local_mismatch(1, Configuration((1, 0)), net) == pytest.approx(0.0, abs=1e-12)

    def test_unfacilitated_pair(self):
        net = two_atom_network()
        assert local_mismatch(1, Configuration((0, 0)), net) == -10.0

    def test_rejects_bad_index(self):
        net = two_atom_network()
        with pytest.raises(ModelError):
            local_mismatch(5, Configuration((0, 0)), net)

    def test_rejects_length_mismatch(self):
        net = two_atom_network()
        with pytest.raises(ModelError):
            local_mismatch(0, Configuration((0, 0, 0)), net)


class TestUnitConversion:
    def setup_method(self):
        self.conv = UnitConversion(ref_omega=0.7e6, ref_length=5.0)

    def test_gamma(self):
        p = SimParams(0.7e6, 0.7e6, 1e3, unit_system=PHYSICAL)
        d = convert_units(p, self.conv, DIMENSIONLESS)
        assert d.gamma == pytest.approx(1.0)

    def test_kappa(self):
        # 1 kHz / 0.7 MHz is ~0.0014; the commonly quoted 0.003 corresponds
        # to the 2 kHz decay rate used in the gas study
        p = SimParams(0.7e6, 0.7e6, 1e3, unit_system=PHYSICAL)
        d = convert_units(p, self.conv, DIMENSIONLESS)
        assert d.kappa == pytest.approx(0.00142857, rel=1e-5)
        p2 = SimParams(0.7e6, 0.7e6, 2e3, unit_system=PHYSICAL)
        d2 = convert_units(p2, self.conv, DIMENSIONLESS)
        assert d2.kappa == pytest.approx(0.00285714, rel=1e-5)

    def test_c6_rescaling_needs_sixth_power(self):
        net = AtomNetwork([[0, 0, 0], [5.0, 0, 0]], [0.0, 0.0], 109e9,
                          unit_system=PHYSICAL)
        d = convert_units(net, self.conv, DIMENSIONLESS)
        assert d.c6 == pytest.approx(109e9 / (0.7e6 * 5.0**6), rel=1e-12)
        assert d.c6 == pytest.approx(10.0, rel=0.005)
        assert d.positions[1, 0] == pytest.approx(1.0)

    def test_round_trip(self):
        p = SimParams(0.7e6, 0.35e6, 2e3, unit_system=PHYSICAL)
        back = convert_units(convert_units(p, self.conv, DIMENSIONLESS),
                             self.conv, PHYSICAL)
        assert back.omega == pytest.approx(p.omega, rel=1e-12)
        assert back.gamma == pytest.approx(p.gamma, rel=1e-12)
        assert back.kappa == pytest.approx(p.kappa, rel=1e-12)
        net = AtomNetwork([[0, 0, 0], [7.3, 1.2, -0.4]], [1e6, -2e6], 869e9,
                          unit_system=PHYSICAL)
        nback = convert_units(convert_units(net, self.conv, DIMENSIONLESS),
                              self.conv, PHYSICAL)
        np.testing.assert_allclose(nback.positions, net.positions, rtol=1e-12)
        np.testing.assert_allclose(nback.static_detunings, net.static_detunings, rtol=1e-12)
        assert nback.c6 == pytest.approx(net.c6, rel=1e-12)

    def test_noop_when_already_in_target_system(self):
        p = SimParams(1.0, 1.0, 0.003)
        assert convert_units(p, self.conv, DIMENSIONLESS) is p

    def test_bad_reference(self):
        with pytest.raises(ModelError):
            UnitConversion(ref_omega=0.7e6, ref_length=0.0)


class TestAtomNetwork:
    def test_rejects_coincident_atoms(self):
        with pytest.raises(ModelError):
            AtomNetwork([[0, 0, 0], [0, 0, 0]], [0.0, 0.0], 10.0)

    def test_rejects_repeated_position_among_many(self):
        pos = np.random.default_rng(3).uniform(0, 10, size=(50, 3))
        pos[37] = pos[3]
        with pytest.raises(ModelError, match="distances must be positive"):
            AtomNetwork(pos, np.zeros(50), 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_positions(self, bad):
        with pytest.raises(ModelError, match="finite"):
            AtomNetwork([[0, 0, 0], [bad, 0, 0]], [0.0, 0.0], 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ModelError):
            AtomNetwork([[0, 0, 0]], [0.0, 1.0], 10.0)

    def test_rejects_bad_c6(self):
        with pytest.raises(ModelError):
            AtomNetwork([[0, 0, 0]], [0.0], 0.0)

    def test_immutable_arrays(self):
        net = two_atom_network()
        with pytest.raises(ValueError):
            net.positions[0, 0] = 3.0


class TestSimParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ModelError):
            SimParams(0.0, 1.0, 0.0)
        with pytest.raises(ModelError):
            SimParams(1.0, -1.0, 0.0)


class TestConfiguration:
    def test_index_ordering(self):
        # atom 0 is bit 0 of the basis index
        assert Configuration((1, 0, 0)).to_index() == 1
        assert Configuration((0, 0, 1)).to_index() == 4

    def test_from_string(self):
        assert Configuration.from_string("101").bits == (1, 0, 1)

    def test_rejects_bad_bits(self):
        with pytest.raises(ModelError):
            Configuration((0, 2))


class TestDetuningSchedule:
    def test_rejects_overlap(self):
        with pytest.raises(ModelError):
            DetuningSchedule(((0.0, 2.0, 0, 1.0), (1.0, 3.0, 0, 2.0)))

    def test_rejects_empty_interval(self):
        with pytest.raises(ModelError):
            DetuningSchedule(((1.0, 1.0, 0, 1.0),))

    def test_lookup(self):
        sched = DetuningSchedule(((1.0, 2.0, 1, 5.0),))
        static = np.array([0.0, -10.0])
        np.testing.assert_allclose(sched.detunings_at(0.5, static), [0.0, -10.0])
        np.testing.assert_allclose(sched.detunings_at(1.0, static), [0.0, 5.0])
        np.testing.assert_allclose(sched.detunings_at(2.0, static), [0.0, -10.0])

    def test_breakpoints(self):
        sched = DetuningSchedule(((1.0, 2.0, 0, 5.0), (2.0, 3.0, 1, 6.0)))
        np.testing.assert_allclose(sched.breakpoints(), [1.0, 2.0, 3.0])
