import hashlib

import numpy as np
import pytest

from rydsim import experiments, geometry
from rydsim.classical import classical_generator
from rydsim.devices import (DELTA_F, GAS_C6, GAS_DELTA_F, GAS_PARAMS, GAS_R_F,
                            R_F, DeviceError, build_and_gate, build_diode,
                            build_gas_switch, build_nand_gate,
                            build_switch_chain, build_transport_chain)
from rydsim.experiments import (T_WORK_IDEAL, T_WORK_NOISY, make_config,
                                run_experiment)
from rydsim.model import Configuration, SimParams, facilitation_radius
from rydsim.quantum import evolve_quantum
from rydsim.timeseries import TimeSeries
from records import to_scipy


class TestSwitchChain:
    def test_layout(self):
        dev = build_switch_chain(delta_g=DELTA_F)
        assert dev.network.n_atoms == 6
        np.testing.assert_allclose(np.diff(dev.network.positions[:, 0]), R_F)
        np.testing.assert_allclose(dev.network.static_detunings,
                                   [DELTA_F, DELTA_F, DELTA_F, DELTA_F,
                                    DELTA_F, DELTA_F])
        assert dev.initial.bits == (1, 0, 0, 0, 0, 0)
        assert dev.output_sites == (2, 3, 4, 5)

    def test_gate_detuning_applied(self):
        dev = build_switch_chain(delta_g=3.5)
        assert dev.network.static_detunings[1] == 3.5

    def test_work_times(self):
        # the switch and diode read out at 4.6 with dephasing, 3.2 without
        assert (T_WORK_NOISY, T_WORK_IDEAL) == (4.6, 3.2)
        config = make_config("fig5c", gammas=[0.0, 0.5, 1.0])
        assert experiments._work_times(config) == [3.2, 4.6, 4.6]

    def appD_work_time(self, monkeypatch, gamma):
        """appD's measured work time: when the resonant switch's output
        peaks."""
        monkeypatch.setenv("RYDSIM_THREADS", "1")
        result = run_experiment({"experiment": "appD", "gammas": [gamma],
                                 "scan": [1.0]})
        [(_, t_w)] = result["scan_rows"]
        return t_w

    # the output peaks near the time the other runs read it out at
    def test_reference_work_time_is_output_peak(self, monkeypatch):
        t_w = self.appD_work_time(monkeypatch, 1.0)
        assert abs(t_w - T_WORK_NOISY) < 0.1

    def test_ideal_work_time_is_output_peak(self, monkeypatch):
        t_w = self.appD_work_time(monkeypatch, 0.0)
        assert abs(t_w - T_WORK_IDEAL) < 0.1


class TestTransportChain:
    def test_layout(self):
        dev = build_transport_chain(4)
        assert dev.network.n_atoms == 4
        assert dev.output_sites == (3,)
        assert dev.initial.bits == (1, 0, 0, 0)

    def test_neighbors_on_resonance(self):
        # an excited atom puts its neighbour on resonance: the flip rate
        # is the resonant 4 omega^2 / gamma
        dev = build_transport_chain(5)
        gen = to_scipy(classical_generator(dev.network,
                                           SimParams(1.0, 1.0, 0.0))[0])
        for k in (1, 2, 3):
            c = Configuration.single_excitation(5, k - 1).to_index()
            assert gen[c ^ (1 << k), c] == pytest.approx(4.0, rel=1e-12)


class TestDiode:
    def test_gate_gap_value(self):
        dev = build_diode("forward")
        gaps = np.diff(dev.network.positions[:, 0])
        assert gaps[1] == pytest.approx(2.0 ** (-1 / 6))
        np.testing.assert_allclose(np.delete(gaps, 1), R_F)

    def test_reverse_mirrors_gate_gap(self):
        dev = build_diode("reverse")
        gaps = np.diff(dev.network.positions[:, 0])
        assert gaps[2] == pytest.approx(2.0 ** (-1 / 6))
        np.testing.assert_allclose(np.delete(gaps, 2), R_F)

    def test_gate_detuning_and_outputs(self):
        for direction in ("forward", "reverse"):
            dev = build_diode(direction)
            np.testing.assert_allclose(dev.network.static_detunings,
                                       [DELTA_F, DELTA_F, 2 * DELTA_F,
                                        DELTA_F, DELTA_F, DELTA_F])
            assert dev.output_sites == (3, 4, 5)
            assert dev.initial.bits == (1, 0, 0, 0, 0, 0)

    def test_rejects_bad_args(self):
        with pytest.raises(DeviceError):
            build_diode("sideways")
        with pytest.raises(DeviceError):
            build_diode("forward", delta_g=5.0)


class TestAndGate:
    def test_geometry(self):
        dev = build_and_gate((1, 1))
        pos = dev.network.positions
        assert np.linalg.norm(pos[0] - pos[2]) == pytest.approx(R_F)
        assert np.linalg.norm(pos[1] - pos[2]) == pytest.approx(R_F)
        assert np.linalg.norm(pos[0] - pos[1]) == pytest.approx(np.sqrt(3) * R_F)
        np.testing.assert_allclose(dev.network.static_detunings,
                                   [DELTA_F, DELTA_F, 2 * DELTA_F])
        assert dev.output_sites == (2,)

    def test_initial_states(self):
        assert build_and_gate((0, 1)).initial.bits == (0, 1, 0)
        assert build_and_gate((1, 0)).initial.bits == (1, 0, 0)

    def test_input_swap_symmetry(self):
        params = SimParams(1.0, 1.0, 0.003)
        a = build_and_gate((1, 0))
        b = build_and_gate((0, 1))
        ts_a = evolve_quantum(a.network, params, a.initial, 3.0,
                              output_sites=a.output_sites)
        ts_b = evolve_quantum(b.network, params, b.initial, 3.0,
                              output_sites=b.output_sites)
        np.testing.assert_allclose(ts_a.output_count, ts_b.output_count,
                                   atol=1e-10)

    def test_rejects_wrong_arity(self):
        with pytest.raises(DeviceError):
            build_and_gate((1, 0, 1))


class TestNandGate:
    def test_layout(self):
        dev = build_nand_gate((0, 0))
        assert dev.network.n_atoms == 4
        np.testing.assert_allclose(dev.network.positions[3], [-R_F, 0, 0])
        assert dev.output_sites == (3,)
        assert dev.initial.bits == (0, 0, 0, 0)

    def test_pulse_window(self):
        dev = build_nand_gate((1, 1))
        (t0, t1, atom, value), = dev.schedule.overrides
        assert atom == 3 and value == 0.0
        assert t1 - t0 == pytest.approx(np.pi / 2)
        assert 0.5 * (t0 + t1) == pytest.approx(1.5)

    def test_detuning_outside_window(self):
        dev = build_nand_gate((0, 1))
        segments = dev.schedule.segments(8.0, dev.network.static_detunings)
        det = next(d for t0, t1, d in segments if t0 <= 0.0 < t1)
        assert det[3] == DELTA_F
        det = next(d for t0, t1, d in segments if t0 <= 1.5 < t1)
        assert det[3] == 0.0


class TestGasSwitch:
    def test_structure(self):
        dev, _ = build_gas_switch(seed=3, n_atoms=500)
        n = dev.network.n_atoms
        assert n == 500
        assert all(b == 0 for b in dev.initial.bits)
        # output sites are exactly the atoms in the last region
        scale = (500 / 3000) ** (1 / 3)
        output_start = (5.0 + 10.0) * scale
        x = dev.network.positions[:, 0]
        expected = tuple(np.nonzero(x >= output_start)[0])
        assert dev.output_sites == expected
        assert 0 < len(dev.output_sites) < n

    def test_gate_region_detuning(self):
        on, off = build_gas_switch(seed=3, n_atoms=500)
        scale = (500 / 3000) ** (1 / 3)
        x = on.network.positions[:, 0]
        gate = (x >= 5.0 * scale) & (x < 15.0 * scale)
        assert gate.any()
        assert np.all(on.network.static_detunings[gate] == GAS_DELTA_F)
        assert np.all(off.network.static_detunings[gate] == -GAS_DELTA_F)
        # the two states sit in one gas
        np.testing.assert_array_equal(on.network.positions,
                                      off.network.positions)

    def test_input_region_resonant(self):
        dev, _ = build_gas_switch(seed=3, n_atoms=500)
        scale = (500 / 3000) ** (1 / 3)
        x = dev.network.positions[:, 0]
        assert np.all(dev.network.static_detunings[x < 5.0 * scale] == 0.0)

    # the gas's constants are its physical (2pi-factored) values in units
    # of the 50 kHz drive, with lengths kept in micrometers
    def test_gamma_in_drive_units(self):
        assert GAS_PARAMS.omega == 1.0
        assert GAS_PARAMS.gamma == pytest.approx(700e3 / 50e3)

    def test_kappa_in_drive_units(self):
        # the 2 kHz decay of the gas study
        assert GAS_PARAMS.kappa == pytest.approx(2e3 / 50e3)

    def test_c6_in_drive_units(self):
        # C6 is a frequency times length^6: with lengths left in um it
        # scales by the drive alone, like the detuning, so the
        # facilitation radius is the physical one
        assert GAS_C6 == pytest.approx(869e9 / 50e3, rel=1e-12)
        assert GAS_DELTA_F == pytest.approx(-69.5e6 / 50e3, rel=1e-12)
        assert GAS_R_F == pytest.approx(facilitation_radius(-69.5e6, 869e9),
                                        rel=1e-12)

    def test_gate_blocks_direct_facilitation(self):
        # full-scale gate region is wider than two facilitation radii
        assert 10.0 > 2 * GAS_R_F

    def test_rejects_undersized_gate(self, monkeypatch):
        # shrinking far enough makes the gate thinner than r_f, which is
        # refused before any gas is sampled
        def sample(*args, **kwargs):
            raise AssertionError("sampled a gas for a refused gate")
        monkeypatch.setattr(geometry, "sample_cylinder", sample)
        with pytest.raises(DeviceError, match="narrower than the facilitation"):
            build_gas_switch(seed=0, n_atoms=2)


class TestReadout:
    """Readout through the runners that decide it, each run replaced by a
    series built here: the gates' work time and threshold, and appD's
    measured work time."""

    def make_series(self, values):
        t = np.linspace(0, 1, len(values))
        v = np.asarray(values, dtype=float)
        return TimeSeries(t, v[:, None], v)

    def read_gate(self, monkeypatch, kind, values_by_input):
        # each input's run under the series name the runner writes it as
        runs = {f"input_{a}{b}": self.make_series(values)
                for (a, b), values in values_by_input.items()}
        monkeypatch.setattr(experiments, "_run_all",
                            lambda jobs: {key: runs[key] for key in jobs})
        return run_experiment({"experiment": f"fig7-{kind}"})

    def read_appD(self, monkeypatch, values):
        monkeypatch.setattr(experiments, "_run_all",
                            lambda jobs: {key: self.make_series(values)
                                          for key in jobs})
        result = run_experiment({"experiment": "appD", "gammas": [1.0],
                                 "scan": [1.0]})
        [(_, t_w)] = result["scan_rows"]
        return t_w

    def test_logic_readout(self, monkeypatch):
        # N_o at the work time, and its bit
        low = [0.0, 0.1]
        result = self.read_gate(monkeypatch, "and",
                                {(0, 0): low, (0, 1): low, (1, 0): low,
                                 (1, 1): [0.0, 0.9]})
        assert result["work_time"] == 1.0
        assert result["scan_rows"] == [("00", 0.1, 0, 0), ("01", 0.1, 0, 0),
                                       ("10", 0.1, 0, 0), ("11", 0.9, 1, 1)]
        assert result["truth_table_ok"]

    def test_tie_reads_zero(self, monkeypatch):
        # (1, 1) sits at the threshold throughout, so every time ties on
        # the worst margin and the earliest is read: 0.5 reads as 0
        zero = [0.0, 0.0]
        result = self.read_gate(monkeypatch, "and",
                                {(0, 0): zero, (0, 1): zero, (1, 0): zero,
                                 (1, 1): [0.5, 0.5]})
        assert result["work_time"] == 0.0
        assert result["scan_rows"][-1] == ("11", 0.5, 0, 1)
        assert not result["truth_table_ok"]

    def test_find_work_time_monotone(self, monkeypatch):
        assert self.read_appD(monkeypatch, [0.0, 0.2, 0.4, 0.8]) == 1.0

    def test_find_work_time_earliest_tie(self, monkeypatch):
        t_w = self.read_appD(monkeypatch, [0.0, 0.7, 0.7, 0.1])
        assert t_w == pytest.approx(1 / 3)

    def test_gate_work_time_margins(self, monkeypatch):
        # NAND expects 1 from three inputs and 0 from (1, 1): the worst
        # margin is best at t = 0.5 (0.2 against 0.15 at t = 0.75), though
        # the mean margin is best at 0.75
        high = [0., .2, .7, 1., .4]
        result = self.read_gate(monkeypatch, "nand",
                                {(0, 0): high, (0, 1): high, (1, 0): high,
                                 (1, 1): [0., .1, 0., .35, 0.]})
        assert result["work_time"] == 0.5
        assert result["truth_table_ok"]


def test_output_sites_must_not_overlap_excited_inputs():
    dev = build_switch_chain(DELTA_F)
    with pytest.raises(DeviceError):
        type(dev)(network=dev.network,
                  initial=Configuration((1, 0, 0, 0, 0, 0)),
                  output_sites=(0, 1))


def device_digest(dev) -> str:
    """Positions and detunings bytes, initial bits, output sites, schedule
    and name of a built device."""
    h = hashlib.sha256()
    for a in (dev.network.positions, dev.network.static_detunings):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(np.array(dev.initial.bits + (-1,) + tuple(dev.output_sites),
                      dtype=np.int64).tobytes())
    h.update(repr((dev.schedule.overrides, dev.name)).encode())
    return h.hexdigest()


# every builder's output at a few arguments, pinned bit for bit
BUILDS = {
    "switch-0.3": (build_switch_chain, (0.3 * DELTA_F,)),
    "switch-1": (build_switch_chain, (DELTA_F,)),
    "switch-2.7": (build_switch_chain, (2.7 * DELTA_F,)),
    "transport-3": (build_transport_chain, (3,)),
    "transport-6-c6-5": (build_transport_chain, (6, 5.0)),
    "diode-forward-1.3": (build_diode, ("forward", 1.3 * DELTA_F)),
    "diode-forward-2": (build_diode, ("forward", 2.0 * DELTA_F)),
    "diode-reverse-1.3": (build_diode, ("reverse", 1.3 * DELTA_F)),
    "diode-reverse-2": (build_diode, ("reverse", 2.0 * DELTA_F)),
    "and-00": (build_and_gate, ((0, 0),)),
    "and-01": (build_and_gate, ((0, 1),)),
    "and-10": (build_and_gate, ((1, 0),)),
    "and-11": (build_and_gate, ((1, 1),)),
    "nand-00": (build_nand_gate, ((0, 0),)),
    "nand-01": (build_nand_gate, ((0, 1),)),
    "nand-10": (build_nand_gate, ((1, 0),)),
    "nand-11": (build_nand_gate, ((1, 1),)),
    "gas-on-400": (lambda: build_gas_switch(7, 400)[0], ()),
    "gas-off-400": (lambda: build_gas_switch(7, 400)[1], ()),
}
BUILD_DIGESTS = {
    "switch-0.3":
        "0b915dc3dfd2a4ce33709e50c9c1688d4af91409ad4c478ed4322f6320d680f7",
    "switch-1":
        "12a244959e4dc8410631c20a22b30fc594a25f1f4ea78c598427cd1995f16d28",
    "switch-2.7":
        "8868d2fde09e3b07b6e28e7994f7be7e8a9cbdc9585bec84172a8fd1c7dc23a1",
    "transport-3":
        "301f86b936bc3f23b54b5c1832a7ecc1975678620a9512f7753304a04cd6664f",
    "transport-6-c6-5":
        "db4ca574062abfc8bfdda583cd8f0ee31a76281680ba0edaa37d9bd5cf28409b",
    "diode-forward-1.3":
        "fd7c9833207e2705c3723118904cee62b437b2542dec15174c972ff206f8d683",
    "diode-forward-2":
        "2f8a20a9890582de39c2badaac335f65600af99052139d2cc9ed3350bfd5eecc",
    "diode-reverse-1.3":
        "55cfb5826e0f884f8a305da6b23d94fe44cf30482a877c55ceeaf00a628a7fd3",
    "diode-reverse-2":
        "06ac7fad2721c5b817c1a48a00b3f2dad0ebf517c33bc20d19a09503c87dcd1d",
    "and-00":
        "bf9f29728afdcf59dde3536556917cff5e1b05e2c3edb81ec9d5242128b35099",
    "and-01":
        "90cf2e28850fb56247331669b3b8e99d736c24b4ea0821a5ef8385f20f173100",
    "and-10":
        "036e1e59938d56ff88bfc4da19d9ecec06f09c7838fb7b20a7187907b2640e85",
    "and-11":
        "366db0afd62b90a722bd499bd0a8d675b45575ca6cb7079127f0c5618911fc9b",
    "nand-00":
        "537796303df3883154b0b63fe4e51f61845f636da138d2bb1f1685b571f22dc3",
    "nand-01":
        "9709f66128cdaa2f5333900c48e39658583896588d2011d3945baed1071a4760",
    "nand-10":
        "811032b56ed6438b19a4a7fb3478f7c237386ef9a4bd99442a42cbfff7b42cf9",
    "nand-11":
        "c4f63a06b7b7db07f85ee1c0827d5b309ab0196f77686c0d3dd96477d33f879e",
    "gas-on-400":
        "eb8aed07ba3c2ecddbfa41fcaa03e6eb1651d4d576a98403986f6efcbce2ec95",
    "gas-off-400":
        "a31e607ce333f3fc11f1a93efd735e6ebf20ee05ff6c14c28a3e98125b94f022",
}


@pytest.mark.parametrize("case", sorted(BUILDS))
def test_builder_output_pinned(case):
    build, args = BUILDS[case]
    assert device_digest(build(*args)) == BUILD_DIGESTS[case]
