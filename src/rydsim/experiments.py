"""Named experiment runners.

Each experiment runs one reference device study with its parameters baked
in as defaults: the chain switch and its detuning scan, the 3D-gas switch,
the diode, the logic gates, and the supporting studies (engine comparison,
chain transport, work-time and diode scans).  Runners return in-memory
results; the CLI layer handles files.
"""

from __future__ import annotations

import os

import numpy as np

# the classical engines are looked up on the module at call time, so that
# a wrapper installed there after import is the one that runs
from . import classical
from .devices import (DELTA_F, GAS_PARAMS, DeviceInstance, build_and_gate,
                      build_diode, build_gas_switch, build_nand_gate,
                      build_switch_chain, build_transport_chain)
from .model import InputError, SimParams
from .propagate import RECORD_POINTS
from .quantum import evolve_quantum
from .timeseries import TimeSeries, config_hash

# Logic readout: an output count above this reads as bit 1.
THRESHOLD = 0.5
# Work times: output density peaks here for the reference switch (gate on
# resonance), with and without dephasing.
T_WORK_NOISY = 4.60
T_WORK_IDEAL = 3.20


# the quantum engine, then the two classical ones
ENGINES = ("quantum", "classical-exact", "kmc")
# config key -> (kind of each value, whether a list, lower bound or None)
KEYS = {
    "seed": (int, False, "non-negative"),
    "trajectories": (int, False, "positive"),
    "instances": (int, False, "positive"),
    "n_atoms": (int, False, "positive"),
    "t_end": (float, False, "positive"),
    "gamma": (float, False, "non-negative"),
    "kappa": (float, False, "non-negative"),
    "delta_g_ratio": (float, False, "positive"),
    "gammas": (float, True, "non-negative"),
    "c6_values": (float, True, "positive"),
    "scan": (float, True, None),
}
# the keys the command line takes as flags (n_atoms as --n-atoms)
FLAGS = ("seed", "trajectories", "instances", "n_atoms", "t_end", "gamma",
         "kappa", "engine")
SAMPLING = ("engine", "trajectories", "seed")  # kmc reads the last two


def make_config(name: str, /, **overrides) -> dict:
    """The experiment's defaults with the given overrides: each one it
    reads (kmc's sampling keys only on kmc, unless they are defaults), an
    engine in ENGINES, any other value (None too) as `_check_value` takes
    it, and no classical engine (appB's included) at a gamma of 0.  Given
    its own output, it returns an equal dict."""
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise InputError(f"unknown experiment {name!r}; choose from "
                         f"{sorted(EXPERIMENTS)}")
    _, defaults, optional, _ = EXPERIMENTS[name]
    if "engine" in overrides and overrides["engine"] not in ENGINES:
        raise InputError(f"unknown engine {overrides['engine']!r}; "
                         f"choose from {list(ENGINES)}")
    config = {"experiment": name, **defaults}
    unread = set(overrides) - set(config) - set(optional)
    if overrides.get("engine") != "kmc":
        unread |= set(overrides) & set(SAMPLING[1:]) - set(config)
    if unread:
        raise InputError(f"{name} does not read {sorted(unread)}")
    for key, value in overrides.items():
        if key != "engine":
            _check_value(key, value)
    config.update(overrides)
    # the classical rates are Lorentzians of width gamma: no classical
    # engine runs at gamma = 0
    engine = "classical-exact" if name == "appB" else config.get("engine")
    if (engine in ENGINES[1:]
            and 0 in config.get("gammas", [config.get("gamma")])):
        raise InputError(f"{name} runs gamma = 0, which the {engine} "
                         "engine does not take (it needs gamma > 0)")
    return config


def _check_value(key: str, value) -> None:
    """Refuse, before anything runs, a value that is not a finite number
    of its KEYS kind at or above its lower bound, or (where KEYS says so)
    a non-empty list of them, no two alike as `:g` names (-0 as 0)."""
    kind, is_list, bound = KEYS[key]
    items = value if is_list and isinstance(value, list) else [value]
    if is_list != isinstance(value, list) or not all(
            isinstance(item, (int, kind)) and not isinstance(item, bool)
            and -np.inf < item < np.inf for item in items):
        what = ("a list of finite numbers" if is_list else
                "a finite integer" if kind is int else "a finite number")
        raise InputError(f"{key} must be {what}, got {value!r}")
    if bound and any(item < 0 or (bound == "positive" and item == 0)
                     for item in items):
        raise InputError(f"{key} must be {bound}, got {value!r}")
    names = [f"{item + 0.0:g}" for item in items]
    if not names or len(set(names)) < len(names):
        raise InputError(f"{key} must not be empty or repeat an entry "
                         f"to 6 significant digits, got {value!r}")


def _kmc_times(t_end: float) -> np.ndarray:
    """kmc's record grid: RECORD_POINTS times from t_end / RECORD_POINTS."""
    return np.linspace(t_end / RECORD_POINTS, t_end, RECORD_POINTS)


def run_device(device: DeviceInstance, params: SimParams, t_end: float,
               engine: str = "quantum", seed: int = 0,
               trajectories: int = 1000,
               site_density: bool = True) -> TimeSeries:
    """Run one device on the requested engine; seed, trajectories and
    site_density (False: keep no per-site sums) are kmc's."""
    if engine == "quantum":
        ts = evolve_quantum(device.network, params, device.initial, t_end,
                            schedule=device.schedule,
                            output_sites=device.output_sites)
    elif engine == "classical-exact":
        ts = classical.evolve_classical_exact(
            device.network, params, device.initial, t_end,
            schedule=device.schedule, output_sites=device.output_sites)
    elif engine == "kmc":
        ts = classical.gillespie_ensemble(
            device.network, params, device.initial, trajectories, seed,
            _kmc_times(t_end), device.output_sites, schedule=device.schedule,
            site_density=site_density)
    else:
        raise InputError(f"unknown engine {engine!r}")
    ts.metadata["device"] = device.name
    return ts


def _run_job(job):
    """One device run: (device, params, t_end, run_device keywords) -> its
    series."""
    device, params, t_end, keywords = job
    return run_device(device, params, t_end, **keywords)


def _run_all(jobs: dict) -> dict:
    """Each job's series under its key, in the jobs' order, the jobs spread
    over RYDSIM_THREADS worker processes (default: the CPU count)."""
    env = os.environ.get("RYDSIM_THREADS")
    if env and not (env.strip().isdecimal() and int(env) > 0):
        raise InputError(
            f"RYDSIM_THREADS must be a positive integer, got {env!r}")
    # at most one worker per job: the pool forks all of them at once
    workers = min(int(env) if env else os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        return {key: _run_job(job) for key, job in jobs.items()}
    # imported here: a serial run never pays for it (~18 ms)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return dict(zip(jobs, pool.map(_run_job, jobs.values())))


def _work_times(config: dict) -> list:
    """The readout time of the chain switch and diode at each of the
    config's gammas (or its gamma); where the record grid (kmc's starts
    after 0) misses one, an InputError before anything runs."""
    t_end = config["t_end"]
    t_ws = [T_WORK_NOISY if gamma > 0 else T_WORK_IDEAL
            for gamma in config.get("gammas", [config.get("gamma")])]
    first = _kmc_times(t_end)[0] if config.get("engine") == "kmc" else 0.0
    if t_end < max(t_ws):
        raise InputError(f"t_end {t_end:g} is below the device work "
                         f"time {max(t_ws):g}")
    if first > min(t_ws):
        raise InputError(f"t_end {t_end:g} puts kmc's first record time "
                         f"{first:g} after the device work time "
                         f"{min(t_ws):g}")
    return t_ws


def _sampling(config: dict) -> dict:
    """The config's SAMPLING keys, as run_device keywords."""
    return {k: config[k] for k in SAMPLING if k in config}


def run_fig3(config: dict) -> dict:
    """Switch gate-detuning scan: N_o at the work time against dg/df."""
    [t_w] = _work_times(config)
    params = SimParams(1.0, config["gamma"], config["kappa"])
    name = "dg_ratio_{:g}".format
    series = _run_all({name(r): (build_switch_chain(r * DELTA_F), params,
                                 config["t_end"], _sampling(config))
                       for r in config["scan"]})
    return {"scan_rows": [(r, series[name(r)].value_at(t_w), t_w)
                          for r in config["scan"]],
            "series": series}


def run_fig4(config: dict) -> dict:
    """3D-gas switch: ensemble on/off output dynamics and plateau ratio."""
    n, seed = config["instances"], config["seed"]
    # instance i samples its gas from seed + i, here, once for its on and
    # off devices (so an undersized gas is refused before any job starts);
    # each device is one kmc job, with trajectories from 1000 seed + i, so
    # the pool has two runs per instance to spread.
    # fig4 writes no per-site columns, so no run keeps them.
    runs = _run_all({(device.name, i): (
        device, GAS_PARAMS, config["t_end"],
        {"engine": "kmc", "seed": 1000 * seed + i,
         "trajectories": config["trajectories"], "site_density": False})
        for i in range(n)
        for device in build_gas_switch(seed + i, config["n_atoms"])})
    out = {"series": {}}
    for key in ("on", "off"):
        part = [runs[f"gas-switch-{key}", i] for i in range(n)]
        meta = [ts.metadata for ts in part]
        out["series"][key] = TimeSeries(
            part[0].times, part[0].site_density,
            sum(ts.output_count for ts in part) / n,
            np.sqrt(sum(ts.output_stderr**2 for ts in part)) / n,
            metadata={"engine": "kmc", "switch": key, "instances": n,
                      "events_mean": float(np.mean(
                          [m["events_mean"] for m in meta])),
                      "events_max": max(m["events_max"] for m in meta),
                      "blocks": sum(m["blocks"] for m in meta),
                      "steps": sum(m["steps"] for m in meta)})
        # each instance's plateau: the mean of its last tenth of records
        out[f"plateau_{key}"] = float(np.mean(
            [np.mean(ts.output_count[-(RECORD_POINTS // 10):])
             for ts in part]))
    # no ratio (null in the summary) where the off state never fires
    out["on_off_ratio"] = (out["plateau_on"] / out["plateau_off"]
                           if out["plateau_off"] > 0 else None)
    return out


def _noisy_params(gamma: float) -> SimParams:
    """Unit drive, dephasing gamma and the 0.003 decay only where gamma > 0."""
    return SimParams(1.0, gamma, 0.003 if gamma > 0 else 0.0)


def _diode_scan(config: dict, ratios) -> list:
    """Forward and reverse diode runs at each of the config's gammas and
    each dg/df in ratios: (gamma, ratio, t_w, forward, reverse), in order."""
    points = [(gamma, ratio, t_w)
              for gamma, t_w in zip(config["gammas"], _work_times(config))
              for ratio in ratios]
    runs = _run_all({(side, gamma, ratio): (
        build_diode(side, ratio * DELTA_F), _noisy_params(gamma),
        config["t_end"], _sampling(config))
        for gamma, ratio, _ in points for side in ("forward", "reverse")})
    return [(gamma, ratio, t_w, runs["forward", gamma, ratio],
             runs["reverse", gamma, ratio]) for gamma, ratio, t_w in points]


def run_fig5c(config: dict) -> dict:
    """Diode forward/reverse output against dephasing."""
    rows, series = [], {}
    for gamma, _, t_w, forward, reverse in _diode_scan(
            config, [config["delta_g_ratio"]]):
        rows.append((gamma, forward.value_at(t_w), reverse.value_at(t_w), t_w))
        series[f"forward_gamma_{gamma:g}"] = forward
        series[f"reverse_gamma_{gamma:g}"] = reverse
    return {"scan_rows": rows, "series": series}


def _gate_work_time(series: dict, truth_table: dict) -> float:
    """The record time (the runs, input_<inputs> in `series`, share one
    grid) that maximizes the worst margin over all inputs: N_o - THRESHOLD
    for an input expected to read 1, THRESHOLD - N_o for one to read 0."""
    margins = [(1.0 if bit else -1.0)
               * (series[f"input_{inputs}"].output_count - THRESHOLD)
               for inputs, bit in truth_table.items()]
    times = next(iter(series.values())).times
    return float(times[int(np.argmax(np.min(margins, axis=0)))])


# input bits, as the builders and scan.csv take them -> expected output bit
AND_TABLE = {"00": 0, "01": 0, "10": 0, "11": 1}
NAND_TABLE = {k: 1 - v for k, v in AND_TABLE.items()}


def run_logic_gate(config: dict, kind: str) -> dict:
    """Four-input time series for a gate plus its work time and truth table."""
    build = build_and_gate if kind == "and" else build_nand_gate
    table = AND_TABLE if kind == "and" else NAND_TABLE
    params = SimParams(1.0, config["gamma"], config["kappa"])
    series = _run_all({f"input_{inputs}": (build(inputs), params,
                                           config["t_end"], _sampling(config))
                       for inputs in table})
    t_w = _gate_work_time(series, table)
    rows, truth = [], {}
    for inputs, expected in table.items():
        # strictly above the threshold: a tie reads 0
        n_o = series[f"input_{inputs}"].value_at(t_w)
        truth[inputs] = int(n_o > THRESHOLD)
        rows.append((inputs, n_o, truth[inputs], expected))
    return {"scan_rows": rows, "series": series, "work_time": t_w,
            "truth_table_ok": truth == table}


def run_appB(config: dict) -> dict:
    """Quantum vs classical-exact comparison on the 3-atom chain."""
    engines = {"quantum": "quantum", "classical": "classical-exact"}
    series = _run_all({f"{name}_gamma_{gamma:g}": (
        build_transport_chain(3), SimParams(1.0, gamma, config["kappa"]),
        config["t_end"], {"engine": engine})
        for gamma in config["gammas"] for name, engine in engines.items()})
    rows = []
    for gamma in config["gammas"]:
        # both exact engines record on the same grid
        tsq, tsc = (series[f"{name}_gamma_{gamma:g}"] for name in engines)
        rows.append((gamma, float(np.max(np.abs(tsq.site_density
                                                - tsc.site_density)))))
    return {"scan_rows": rows, "series": series}


def run_appC(config: dict) -> dict:
    """Excitation transport along a 6-atom chain for several C6 values."""
    return {"series": _run_all({f"c6_{c6:g}_gamma_{gamma:g}": (
        build_transport_chain(6, c6), SimParams(1.0, gamma, kappa),
        config["t_end"], {})
        for c6 in config["c6_values"]
        for gamma, kappa in ((0.0, 0.0), (config["gamma"], config["kappa"]))})}


def run_appD(config: dict) -> dict:
    """Work-time study: time of maximal output density near resonance,
    read out on resonance (dg/df = 1) only; a scan without it, which
    would read out nothing, is refused before anything runs."""
    name = "gamma_{:g}_dg_{:g}".format
    read = [ratio for ratio in config["scan"] if np.isclose(ratio, 1.0)]
    if not read:
        raise InputError(f"appD reads out at dg/df = 1 only, which scan "
                         f"{config['scan']} lacks")
    series = _run_all({name(gamma, ratio): (
        build_switch_chain(ratio * DELTA_F), _noisy_params(gamma),
        config["t_end"], {})
        for gamma in config["gammas"] for ratio in config["scan"]})
    rows = []
    for gamma in config["gammas"]:
        for ratio in read:  # the earliest record of the most N_o
            ts = series[name(gamma, ratio)]
            rows.append((gamma, float(ts.times[np.argmax(ts.output_count)])))
    return {"scan_rows": rows, "series": series}


def run_appE(config: dict) -> dict:
    """Diode gate-detuning scan in both directions."""
    return {"scan_rows": [
        (gamma, ratio, forward.value_at(t_w), reverse.value_at(t_w))
        for gamma, ratio, t_w, forward, reverse
        in _diode_scan(config, config["scan"])]}


# name -> (runner, default config, keys it reads besides its defaults,
# header of its scan.csv or None where it writes none)
GATE_HEADER = ("inputs", "N_o_at_t_w", "output_bit", "expected")
EXPERIMENTS = {
    "fig3": (run_fig3,
             {"gamma": 1.0, "kappa": 0.003,
              "scan": [round(0.1 * i, 2) for i in range(1, 31)],
              "t_end": 8.0},
             SAMPLING, ("delta_g_over_delta_f", "N_o_at_t_w", "t_w")),
    "fig4": (run_fig4,
             {"n_atoms": 3000, "instances": 10, "trajectories": 30,
              "t_end": 100.0, "seed": 7},
             (), None),
    "fig5c": (run_fig5c,
              {"gammas": [0.0, 0.25, 0.5, 1.0], "delta_g_ratio": 2.0,
               "t_end": 8.0},
              SAMPLING, ("gamma", "N_o_forward", "N_o_reverse", "t_w")),
    "fig7-and": (lambda c: run_logic_gate(c, "and"),
                 {"gamma": 1.0, "kappa": 0.003, "t_end": 8.0},
                 SAMPLING, GATE_HEADER),
    "fig7-nand": (lambda c: run_logic_gate(c, "nand"),
                  {"gamma": 1.0, "kappa": 0.003, "t_end": 8.0},
                  SAMPLING, GATE_HEADER),
    "appB": (run_appB,
             {"gammas": [0.1, 1.0, 10.0], "kappa": 0.003, "t_end": 4.0},
             (), ("gamma", "max_site_density_diff")),
    "appC": (run_appC,
             {"c6_values": [5.0, 10.0, 15.0], "gamma": 1.0, "kappa": 0.003,
              "t_end": 8.0},
             (), None),
    "appD": (run_appD,
             {"gammas": [0.0, 1.0],
              "scan": [round(0.1 * i, 2) for i in range(8, 13)],
              "t_end": 8.0},
             (), ("gamma", "t_w")),
    "appE": (run_appE,
             {"gammas": [0.0, 1.0],
              "scan": [round(0.1 * i, 2) for i in range(1, 31)],
              "t_end": 8.0},
             (), ("gamma", "delta_g_over_delta_f", "N_o_forward",
                  "N_o_reverse")),
}


def run_experiment(config: dict) -> dict:
    """Run any config dict, from {"experiment": name} to a summary's
    config: `make_config` first fills in the experiment's defaults and
    makes every refusal, so nothing runs on input it would refuse.  The
    result carries the checked config, its hash and its scan header."""
    fields = dict(config)
    config = make_config(fields.pop("experiment", None), **fields)
    runner, _, _, header = EXPERIMENTS[config["experiment"]]
    result = runner(config)
    if header:
        result["scan_header"] = header
    result["config"] = config
    result["config_hash"] = config_hash(config)
    return result
