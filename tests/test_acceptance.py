"""End-to-end acceptance suite for the reference device behaviors.

Each test prints a PASS/FAIL line per check (visible in the run report via
the -rP summary configured in pyproject.toml); criteria 1 and 2 run
`rydsim validate`'s own checks.
"""

import numpy as np
import pytest

from rydsim.classical import evolve_classical_exact, gillespie_ensemble
from rydsim.cli import CHECKS
from rydsim.devices import (DELTA_F, build_and_gate, build_diode,
                            build_switch_chain, build_transport_chain)
from rydsim.experiments import make_config, run_experiment, run_logic_gate
from rydsim.geometry import build_chain
from rydsim.model import Configuration, SimParams
from rydsim.quantum import evolve_quantum, from_real


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_check(name, *args):
    """Run and report the entry `name` of `rydsim validate`'s checks."""
    [check] = [check for key, _, check in CHECKS if key == name]
    report(name, *check(*args))


@pytest.fixture(scope="module")
def fig3_result():
    return run_experiment(make_config("fig3"))


@pytest.fixture(scope="module")
def fig4_full():
    return run_experiment(make_config("fig4"))


@pytest.fixture(scope="module")
def fig4_desk():
    return run_experiment(make_config("fig4", n_atoms=500))


@pytest.fixture(scope="module")
def fig5c_result():
    return run_experiment(make_config("fig5c"))


@pytest.fixture(scope="module")
def appB_result():
    return run_experiment(make_config("appB"))


def small_chain_devices():
    """Every chain device with at most four atoms."""
    devices = [build_transport_chain(n) for n in (2, 3, 4)]
    # four-atom gated chain: transport interrupted by an off-resonant gate
    net = build_chain([1.0] * 3, [DELTA_F, 0.5 * DELTA_F, DELTA_F, DELTA_F],
                      10.0)
    from rydsim.devices import DeviceInstance
    devices.append(DeviceInstance(
        network=net, initial=Configuration.single_excitation(4, 0),
        output_sites=(2, 3), name="gated-chain-4"))
    return devices


class TestCriterion1:
    def test_analytic_oracles(self):
        for name, reads_appB, check in CHECKS:
            if not reads_appB:
                report(name, *check())


class TestCriterion2:
    def test_engine_agreement_regimes(self, appB_result):
        for name, _, check in CHECKS:
            if name.startswith("cross-engine-"):
                report(name, *check(appB_result))


class TestCriterion3:
    def test_switch_detuning_scan(self, fig3_result):
        rows = fig3_result["scan_rows"]
        ratios = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        peak_ratio = float(ratios[np.argmax(values)])
        baseline = float(np.mean([v for r, v in zip(ratios, values)
                                  if r in (0.3, 2.5)]))
        contrast = float(values.max() / baseline)
        ok = abs(peak_ratio - 1.0) <= 0.15 and contrast >= 2.0
        report("switch-scan", ok,
               f"peak at dg/df = {peak_ratio:g} (|.-1| <= 0.15), "
               f"peak/baseline = {contrast:.2f} (>= 2)")


class TestCriterion4:
    def test_gas_switch_full_scale(self, fig4_full):
        ratio = fig4_full["on_off_ratio"]
        ok = 1.6 <= ratio <= 2.6
        report("gas-switch-full", ok,
               f"on/off plateau ratio {ratio:.2f} in [1.6, 2.6] "
               f"(on {fig4_full['plateau_on']:.1f}, "
               f"off {fig4_full['plateau_off']:.1f})")

    def test_gas_switch_desk_scale(self, fig4_desk):
        ratio = fig4_desk["on_off_ratio"]
        ok = ratio >= 1.5
        report("gas-switch-desk", ok,
               f"N=500 on/off plateau ratio {ratio:.2f} (>= 1.5)")


class TestCriterion5:
    def test_diode_rectification(self, fig5c_result):
        rows = fig5c_result["scan_rows"]
        gammas = [r[0] for r in rows]
        fwd = np.array([r[1] for r in rows])
        rev = np.array([r[2] for r in rows])
        gaps = fwd - rev
        ratio0 = float(fwd[gammas.index(0.0)] / rev[gammas.index(0.0)])
        order = np.argsort(gammas)
        monotone = bool(np.all(np.diff(gaps[order]) < 0))
        ok = bool(np.all(fwd > rev)) and ratio0 >= 5.0 and monotone
        report("diode", ok,
               f"forward > reverse at gamma {gammas}, ratio(gamma=0) = "
               f"{ratio0:.2f} (>= 5), gaps decreasing: "
               f"{np.round(gaps[order], 3).tolist()}")


class TestCriterion6:
    @pytest.mark.parametrize("gamma,kappa", [(0.0, 0.0), (1.0, 0.003)])
    def test_logic_gate_truth_tables(self, gamma, kappa):
        details = []
        ok = True
        for kind in ("and", "nand"):
            config = make_config(f"fig7-{kind}", gamma=gamma, kappa=kappa)
            res = run_logic_gate(config, kind)
            ok = ok and res["truth_table_ok"]
            details.append(f"{kind.upper()} t_w={res['work_time']:.2f} "
                           f"{'correct' if res['truth_table_ok'] else 'WRONG'}")
        report(f"logic-gates-gamma-{gamma:g}", ok, "; ".join(details))


class TestCriterion7:
    def test_sampler_matches_exact_propagator(self):
        params = SimParams(1.0, 1.0, 0.003)
        times = np.linspace(0.1, 4.0, 40)
        worst = 0.0
        names = []
        for dev in small_chain_devices():
            exact = evolve_classical_exact(dev.network, params, dev.initial,
                                           4.0, output_sites=dev.output_sites)
            ens = gillespie_ensemble(dev.network, params, dev.initial, 10000,
                                     123, times,
                                     output_sites=dev.output_sites)
            diff = float(np.max(np.abs(
                ens.site_density - exact.resample(times).site_density)))
            worst = max(worst, diff)
            names.append(f"{dev.name or dev.network.n_atoms}:{diff:.4f}")
        ok = worst < 0.02
        report("sampler-vs-exact", ok,
               f"max |density diff| per device {names} (all < 0.02)")


class TestCriterion8:
    def test_conservation_invariants(self, fig4_desk):
        checks = []

        # density-matrix invariants on representative device runs
        quantum_runs = [
            (build_switch_chain(DELTA_F), SimParams(1.0, 1.0, 0.003), 8.0),
            (build_transport_chain(3), SimParams(1.0, 10.0, 0.003), 4.0),
            (build_transport_chain(3), SimParams(1.0, 0.1, 0.003), 4.0),
            (build_diode("forward"), SimParams(1.0, 0.0, 0.0), 3.2),
            (build_and_gate((1, 1)), SimParams(1.0, 1.0, 0.003), 8.0),
        ]
        for dev, params, t_end in quantum_runs:
            ts = evolve_quantum(dev.network, params, dev.initial, t_end,
                                schedule=dev.schedule,
                                output_sites=dev.output_sites)
            rho = from_real(ts.final_state)
            checks.append(abs(np.real(np.trace(rho)) - 1.0) < 1e-8)
            checks.append(float(np.max(np.abs(rho - rho.conj().T))) < 1e-8)
            checks.append(float(np.linalg.eigvalsh(rho)[0]) >= -1e-8)
            checks.append(float(np.min(np.real(np.diag(rho)))) > -1e-8)

        # probability normalization and nonnegativity on the exact propagator
        for dev in small_chain_devices():
            ts = evolve_classical_exact(dev.network,
                                        SimParams(1.0, 1.0, 0.003),
                                        dev.initial, 4.0,
                                        output_sites=dev.output_sites)
            checks.append(abs(float(ts.final_state.sum()) - 1.0) < 1e-6)
            checks.append(float(ts.final_state.min()) > -1e-9)

        # sampled densities stay within physical bounds
        for key in ("on", "off"):
            series = fig4_desk["series"][key]
            checks.append(bool(np.all(series.output_count >= 0)))
            checks.append(bool(np.all(np.isfinite(series.output_count))))

        ok = all(checks)
        report("conservation", ok,
               f"{sum(checks)}/{len(checks)} invariant checks satisfied")
