"""Named experiment runners.

Each experiment runs one reference device study with its parameters baked
in as defaults: the chain switch and its detuning scan, the 3D-gas switch,
the diode, the logic gates, and the supporting studies (engine comparison,
chain transport, work-time and diode scans).  Runners return in-memory
results; the CLI layer handles files.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .classical import evolve_classical, gillespie_ensemble
from .devices import (DELTA_F, GAS_PARAMS, DeviceError, DeviceInstance,
                      build_and_gate, build_diode, build_gas_switch,
                      build_nand_gate, build_switch_chain,
                      build_transport_chain, find_gate_work_time,
                      find_work_time, logic_readout)
from .model import SimParams
from .propagate import RECORD_POINTS
from .quantum import evolve_quantum
from .timeseries import TimeSeries, config_hash

class ExperimentError(ValueError):
    pass


def make_config(name: str, **overrides) -> dict:
    """The experiment's defaults with the given (non-None) overrides, each
    of which the experiment must read; a non-positive t_end, trajectory or
    instance count, and a negative or non-finite rate, are refused before
    anything runs."""
    if name not in EXPERIMENTS:
        raise ExperimentError(f"unknown experiment {name!r}; choose from "
                              f"{sorted(EXPERIMENTS)}")
    _, defaults, optional = EXPERIMENTS[name]
    config = {"experiment": name, **defaults}
    given = {key: value for key, value in overrides.items()
             if value is not None}
    unread = set(given) - set(config) - set(optional)
    if unread:
        raise ExperimentError(f"{name} does not read {sorted(unread)}")
    config.update(given)
    for key in ("t_end", "trajectories", "instances"):
        value = config.get(key, 1)
        if not (isinstance(value, (int, float)) and 0 < value < np.inf):
            raise ExperimentError(f"{key} must be positive, got {value!r}")
    rates = [(key, config[key]) for key in ("gamma", "kappa") if key in config]
    rates += [("gammas", value) for value in config.get("gammas", ())]
    for key, value in rates:
        if not (isinstance(value, (int, float)) and 0 <= value < np.inf):
            raise ExperimentError(
                f"{key} must be non-negative and finite, got {value!r}")
    return config


def worker_count() -> int:
    env = os.environ.get("RYDSIM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ExperimentError(
                f"RYDSIM_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _pool_map(fn, jobs):
    """Map jobs through a process pool; assembly is ordered by index."""
    workers = worker_count()
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def run_device(device: DeviceInstance, params: SimParams, t_end: float,
               engine: str | None = None, seed: int = 0,
               trajectories: int = 1000) -> TimeSeries:
    """Run one device on the requested engine (default: its hint)."""
    engine = engine or device.engine_hint
    params = device.params or params
    if engine == "quantum":
        ts = evolve_quantum(device.network, params, device.initial, t_end,
                            schedule=device.schedule,
                            output_sites=device.output_sites)
    elif engine == "classical-exact":
        ts = evolve_classical(device.network, params, device.initial, t_end,
                              schedule=device.schedule,
                              output_sites=device.output_sites)
    elif engine == "kmc":
        times = np.linspace(t_end / RECORD_POINTS, t_end, RECORD_POINTS)
        ts = gillespie_ensemble(device.network, params, device.initial, t_end,
                                trajectories, seed, times,
                                device.output_sites,
                                schedule=device.schedule)
    else:
        raise ExperimentError(f"unknown engine {engine!r}")
    ts.metadata["device"] = device.name
    return ts


def _at_work_time(ts: TimeSeries, work_time: float, t_end: float) -> float:
    """Output count at the device work time, which t_end must reach."""
    if t_end < work_time:
        raise ExperimentError(f"t_end {t_end:g} is below the device work "
                              f"time {work_time:g}")
    return ts.value_at(work_time)


def _switch_point(job):
    ratio, gamma, kappa, t_end, engine, sampling = job
    params = SimParams(1.0, gamma, kappa)
    dev = build_switch_chain(ratio * DELTA_F, gamma=gamma)
    ts = run_device(dev, params, t_end, engine=engine, **sampling)
    return ratio, _at_work_time(ts, dev.work_time, t_end), dev.work_time, ts


def run_fig3(config: dict) -> dict:
    """Switch gate-detuning scan: N_o at the work time against dg/df."""
    if not config["scan"]:
        raise ExperimentError("empty scan grid")
    # kmc's trajectory count and seed, where the config sets them
    sampling = {k: config[k] for k in ("trajectories", "seed") if k in config}
    jobs = [(r, config["gamma"], config["kappa"], config["t_end"],
             config.get("engine"), sampling)
            for r in config["scan"]]
    results = _pool_map(_switch_point, jobs)
    rows, series = [], {}
    for ratio, n_o, t_w, ts in results:
        rows.append((ratio, n_o, t_w))
        series[f"dg_ratio_{ratio:g}"] = ts
    return {"scan_rows": rows,
            "scan_header": ["delta_g_over_delta_f", "N_o_at_t_w", "t_w"],
            "series": series}


def run_fig4(config: dict) -> dict:
    """3D-gas switch: ensemble on/off output dynamics and plateau ratio."""
    t_end = config["t_end"]
    times = np.linspace(t_end / RECORD_POINTS, t_end, RECORD_POINTS)
    out = {"series": {}}
    plateaus = {}
    for on in (True, False):
        key = "on" if on else "off"
        acc_no = np.zeros_like(times)
        acc_err = np.zeros_like(times)
        per_instance, counters = [], []
        for inst in range(config["instances"]):
            try:
                dev = build_gas_switch(on, seed=config["seed"] + inst,
                                       n_atoms=config["n_atoms"])
            except DeviceError as exc:
                raise ExperimentError(
                    f"n_atoms {config['n_atoms']} is too few for the gas "
                    f"switch: {exc}") from None
            ts = gillespie_ensemble(dev.network, GAS_PARAMS, dev.initial,
                                    t_end, config["trajectories"],
                                    master_seed=1000 * config["seed"] + inst,
                                    times=times,
                                    output_sites=dev.output_sites)
            acc_no += ts.output_count
            acc_err += ts.output_stderr**2
            per_instance.append(ts.plateau_value())
            counters.append([ts.metadata[k] for k in
                             ("events_mean", "events_max", "blocks")])
        mean_no = acc_no / config["instances"]
        stderr = np.sqrt(acc_err) / config["instances"]
        means, maxes, blocks = zip(*counters)
        ens = TimeSeries(times, np.zeros((times.size, 1)), mean_no, stderr,
                         metadata={"engine": "kmc", "switch": key,
                                   "instances": config["instances"],
                                   "events_mean": float(np.mean(means)),
                                   "events_max": max(maxes),
                                   "blocks": sum(blocks)})
        out["series"][key] = ens
        plateaus[key] = float(np.mean(per_instance))
    out["plateau_on"] = plateaus["on"]
    out["plateau_off"] = plateaus["off"]
    out["on_off_ratio"] = (plateaus["on"] / plateaus["off"]
                           if plateaus["off"] > 0 else float("inf"))
    return out


def _noisy_params(gamma: float) -> SimParams:
    """Unit drive, dephasing gamma and the 0.003 decay only where gamma > 0."""
    return SimParams(1.0, gamma, 0.003 if gamma > 0 else 0.0)


def _diode_point(job):
    gamma, direction, ratio, t_end, engine = job
    dev = build_diode(direction, ratio * DELTA_F, gamma=gamma)
    ts = run_device(dev, _noisy_params(gamma), t_end, engine=engine)
    return _at_work_time(ts, dev.work_time, t_end), dev.work_time, ts


def run_fig5c(config: dict) -> dict:
    """Diode forward/reverse output against dephasing."""
    directions = ("forward", "reverse")
    jobs = [(gamma, direction, config["delta_g_ratio"], config["t_end"],
             config.get("engine"))
            for gamma in config["gammas"] for direction in directions]
    results = iter(_pool_map(_diode_point, jobs))
    rows, series = [], {}
    for gamma in config["gammas"]:
        point = {}
        for direction in directions:
            n_o, t_w, ts = next(results)
            point[direction] = (n_o, t_w)
            series[f"{direction}_gamma_{gamma:g}"] = ts
        rows.append((gamma, point["forward"][0], point["reverse"][0],
                     point["forward"][1]))
    return {"scan_rows": rows,
            "scan_header": ["gamma", "N_o_forward", "N_o_reverse", "t_w"],
            "series": series}


AND_TABLE = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
NAND_TABLE = {k: 1 - v for k, v in AND_TABLE.items()}


def run_logic_gate(config: dict, kind: str) -> dict:
    """Four-input time series for a gate plus its work time and truth table."""
    build = build_and_gate if kind == "and" else build_nand_gate
    table = AND_TABLE if kind == "and" else NAND_TABLE
    params = SimParams(1.0, config["gamma"], config["kappa"])
    series = {}
    for bits in sorted(table):
        dev = build(bits)
        series[bits] = run_device(dev, params, config["t_end"],
                                  engine=config.get("engine"))
    t_w = find_gate_work_time(series, table)
    rows = []
    truth = {}
    for bits in sorted(table):
        result = logic_readout(series[bits], t_w, inputs=bits)
        rows.append((f"{bits[0]}{bits[1]}", result.n_o_at_work_time,
                     result.output_bit, table[bits]))
        truth[bits] = result.output_bit
    return {"scan_rows": rows,
            "scan_header": ["inputs", "N_o_at_t_w", "output_bit", "expected"],
            "series": {f"input_{b[0]}{b[1]}": s for b, s in series.items()},
            "work_time": t_w,
            "truth_table_ok": truth == table}


def run_appB(config: dict) -> dict:
    """Quantum vs classical-exact comparison on the 3-atom chain."""
    dev = build_transport_chain(3)
    series, rows = {}, []
    for gamma in config["gammas"]:
        params = SimParams(1.0, gamma, config["kappa"])
        tsq = run_device(dev, params, config["t_end"], engine="quantum")
        tsc = run_device(dev, params, config["t_end"], engine="classical-exact")
        tsc_on_q = tsc.resample(tsq.times)
        diff = float(np.max(np.abs(tsq.site_density - tsc_on_q.site_density)))
        series[f"quantum_gamma_{gamma:g}"] = tsq
        series[f"classical_gamma_{gamma:g}"] = tsc
        rows.append((gamma, diff))
    return {"scan_rows": rows,
            "scan_header": ["gamma", "max_site_density_diff"],
            "series": series}


def run_appC(config: dict) -> dict:
    """Excitation transport along a 6-atom chain for several C6 values."""
    series = {}
    for c6 in config["c6_values"]:
        for gamma, kappa in ((0.0, 0.0), (config["gamma"], config["kappa"])):
            dev = build_transport_chain(6, c6=c6)
            params = SimParams(1.0, gamma, kappa)
            ts = run_device(dev, params, config["t_end"],
                            engine=config.get("engine"))
            series[f"c6_{c6:g}_gamma_{gamma:g}"] = ts
    return {"series": series}


def run_appD(config: dict) -> dict:
    """Work-time study: time of maximal output density near resonance."""
    rows, series = [], {}
    for gamma in config["gammas"]:
        params = _noisy_params(gamma)
        for ratio in config["scan"]:
            dev = build_switch_chain(ratio * DELTA_F, gamma=gamma)
            ts = run_device(dev, params, config["t_end"])
            series[f"gamma_{gamma:g}_dg_{ratio:g}"] = ts
            if np.isclose(ratio, 1.0):
                rows.append((gamma, find_work_time(ts)))
    return {"scan_rows": rows, "scan_header": ["gamma", "t_w"],
            "series": series}


def _appE_point(job):
    gamma, ratio, t_end = job
    out = {}
    for direction in ("forward", "reverse"):
        n_o, t_w, _ = _diode_point((gamma, direction, ratio, t_end, None))
        out[direction] = n_o
    return (gamma, ratio, out["forward"], out["reverse"])


def run_appE(config: dict) -> dict:
    """Diode gate-detuning scan in both directions."""
    if not config["scan"]:
        raise ExperimentError("empty scan grid")
    jobs = [(gamma, ratio, config["t_end"])
            for gamma in config["gammas"] for ratio in config["scan"]]
    rows = _pool_map(_appE_point, jobs)
    return {"scan_rows": rows,
            "scan_header": ["gamma", "delta_g_over_delta_f",
                            "N_o_forward", "N_o_reverse"]}


# name -> (runner, default config, keys it reads besides its defaults)
EXPERIMENTS = {
    "fig3": (run_fig3,
             {"gamma": 1.0, "kappa": 0.003,
              "scan": [round(0.1 * i, 2) for i in range(1, 31)],
              "t_end": 8.0},
             ("engine", "trajectories", "seed")),
    "fig4": (run_fig4,
             {"n_atoms": 3000, "instances": 10, "trajectories": 30,
              "t_end": 100.0, "seed": 7},
             ()),
    "fig5c": (run_fig5c,
              {"gammas": [0.0, 0.25, 0.5, 1.0], "delta_g_ratio": 2.0,
               "t_end": 8.0},
              ("engine",)),
    "fig7-and": (lambda c: run_logic_gate(c, "and"),
                 {"gamma": 1.0, "kappa": 0.003, "t_end": 8.0},
                 ("engine",)),
    "fig7-nand": (lambda c: run_logic_gate(c, "nand"),
                  {"gamma": 1.0, "kappa": 0.003, "t_end": 8.0},
                  ("engine",)),
    "appB": (run_appB,
             {"gammas": [0.1, 1.0, 10.0], "kappa": 0.003, "t_end": 4.0},
             ()),
    "appC": (run_appC,
             {"c6_values": [5.0, 10.0, 15.0], "gamma": 1.0, "kappa": 0.003,
              "t_end": 8.0},
             ("engine",)),
    "appD": (run_appD,
             {"gammas": [0.0, 1.0],
              "scan": [round(0.1 * i, 2) for i in range(8, 13)],
              "t_end": 8.0},
             ()),
    "appE": (run_appE,
             {"gammas": [0.0, 1.0],
              "scan": [round(0.1 * i, 2) for i in range(1, 31)],
              "t_end": 8.0},
             ()),
}


def run_experiment(config: dict) -> dict:
    name = config.get("experiment")
    if name not in EXPERIMENTS:
        raise ExperimentError(f"unknown experiment {name!r}")
    result = EXPERIMENTS[name][0](config)
    result["config"] = config
    result["config_hash"] = config_hash(config)
    return result
