import json
import os
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest
import scipy.sparse as sp

from rydsim import classical, cli, experiments, quantum
from rydsim.cli import build_parser, main, run_validation
from rydsim.devices import GAS_PARAMS, build_transport_chain
from rydsim.experiments import (ENGINES, EXPERIMENTS, FLAGS, KEYS,
                                make_config, run_experiment)
from rydsim.model import SimParams
from rydsim.timeseries import TimeSeries
from records import to_record, to_scipy
from test_timeseries import per_value_csv


# malformed input refused before any job list starts
NO_JOB_CASES = ("empty-gammas-appB", "empty-gammas-fig5c",
                "repeated-scan-close", "repeated-scan-equal",
                "unknown-engine", "unknown-engine-seed", "list-experiment",
                "name-key",
                "null-gamma", "null-scan", "null-engine",
                "directory-target", "undecodable-target", "gas-too-small")


def no_jobs(jobs):
    raise AssertionError("a job list started")


def no_engines(monkeypatch):
    """Make every engine raise if called, in one process."""
    monkeypatch.setenv("RYDSIM_THREADS", "1")

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran")
    monkeypatch.setattr(experiments, "evolve_quantum", no_engine)
    monkeypatch.setattr(classical, "evolve_classical_exact", no_engine)
    monkeypatch.setattr(classical, "gillespie_ensemble", no_engine)


def tiny_fig4_args(out_dir, seed=11):
    return ["run", "fig4", "--n-atoms", "400", "--instances", "1",
            "--trajectories", "10", "--t-end", "20", "--seed", str(seed),
            "--out", str(out_dir)]


class TestRun:
    def test_tiny_gas_run_writes_outputs(self, tmp_path):
        assert main(tiny_fig4_args(tmp_path)) == 0
        out = tmp_path / "fig4"
        for key in ("on", "off"):
            with open(out / f"{key}.csv") as fh:
                assert fh.readline() == "t,N_o,N_o_stderr\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "fig4"
        assert summary["plateau_on"] > 0
        assert "on_off_ratio" in summary
        for key in ("on", "off"):
            counters = summary["series"][key]
            assert counters["events_mean"] > 0
            assert counters["events_max"] >= counters["events_mean"]
            assert counters["blocks"] == 1
            # the lockstep steps once per event of its busiest trajectory
            assert counters["steps"] >= counters["events_max"]

    def test_fig4_samples_each_instances_gas_once(self, monkeypatch):
        # in one process an instance's on and off runs share the gas of
        # its seed
        from rydsim import geometry
        monkeypatch.setenv("RYDSIM_THREADS", "1")
        seeds = []
        sample = geometry.sample_cylinder

        def counted(spec, seed):
            seeds.append(seed)
            return sample(spec, seed)
        monkeypatch.setattr(geometry, "sample_cylinder", counted)
        run_experiment(make_config("fig4", n_atoms=400, instances=2,
                                   trajectories=2, t_end=20.0, seed=11))
        assert seeds == [11, 12]

    def test_fig4_samples_each_gas_once_over_two_workers(self, monkeypatch,
                                                         tmp_path):
        # every process that samples a gas logs it to a file: one sample
        # per instance, taken here before the on and off runs go to the
        # workers
        from rydsim import geometry
        monkeypatch.setenv("RYDSIM_THREADS", "2")
        log = tmp_path / "samples.log"
        sample = geometry.sample_cylinder

        def logged(spec, seed):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {seed}\n")
            return sample(spec, seed)
        monkeypatch.setattr(geometry, "sample_cylinder", logged)
        run_experiment(make_config("fig4", n_atoms=400, instances=2,
                                   trajectories=2, t_end=20.0, seed=11))
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(seed) for _, seed in calls) == [11, 12]
        assert {pid for pid, _ in calls} == {str(os.getpid())}

    def test_summary_holds_exact_engine_counters(self, tmp_path):
        config = make_config("fig7-and", engine="classical-exact")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
        summary = json.loads(
            (tmp_path / "fig7-and" / "summary.json").read_text())
        assert sorted(summary["series"]) == ["input_00", "input_01",
                                             "input_10", "input_11"]
        for meta in summary["series"].values():
            assert meta["engine"] == "classical-exact"
            assert meta["products"] > 0 and meta["spans"] > 0
            assert meta["norm_drift"] < 1e-6

    def test_deterministic_for_fixed_seed(self, tmp_path):
        main(tiny_fig4_args(tmp_path / "a"))
        main(tiny_fig4_args(tmp_path / "b"))
        for name in ("on.csv", "off.csv", "summary.json"):
            assert (tmp_path / "a" / "fig4" / name).read_text() == \
                (tmp_path / "b" / "fig4" / name).read_text()

    def test_seed_changes_output(self, tmp_path):
        main(tiny_fig4_args(tmp_path / "a", seed=11))
        main(tiny_fig4_args(tmp_path / "b", seed=12))
        assert (tmp_path / "a" / "fig4" / "on.csv").read_text() != \
            (tmp_path / "b" / "fig4" / "on.csv").read_text()

    def test_replay_from_summary(self, tmp_path):
        main(tiny_fig4_args(tmp_path / "a"))
        summary = tmp_path / "a" / "fig4" / "summary.json"
        assert main(["run", str(summary), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "fig4" / "on.csv").read_text() == \
            (tmp_path / "b" / "fig4" / "on.csv").read_text()

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        assert main(["run", "fig99", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_engine_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # a generator whose columns lose probability fails the engine's
        # trace_leak check: an engine error, not a usage one; t_end reaches
        # the work time, which is refused before any engine runs
        monkeypatch.setenv("RYDSIM_THREADS", "1")
        generator = classical.classical_generator

        def leaking(*args):
            g, rect = generator(*args)
            data = g.data.copy()
            data[g.indptr[:-1]] -= 1e-3  # each row's diagonal comes first
            return g._replace(data=data), rect

        monkeypatch.setattr(classical, "classical_generator", leaking)
        config = make_config("fig3", t_end=5.0, engine="classical-exact")
        config["scan"] = [1.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "engine failure" in capsys.readouterr().err


    @pytest.mark.parametrize("case", ["invalid-json", "no-experiment",
                                      "bad-threads", "zero-threads",
                                      "negative-threads",
                                      "no-gas-instances", "negative-t-end",
                                      "nan-t-end", "text-t-end",
                                      "no-gas-trajectories",
                                      "no-kmc-trajectories", "nan-gamma",
                                      "inf-kappa", "negative-kappa",
                                      "negative-gammas", "scalar-gammas",
                                      "nan-scan", "negative-c6",
                                      "negative-delta-g-ratio",
                                      "negative-seed", "zero-gammas-kmc",
                                      "zero-gamma-classical-exact",
                                      "zero-gamma-kmc", "zero-gammas-appB",
                                      *NO_JOB_CASES])
    def test_malformed_input_exits_2(self, tmp_path, capsys, monkeypatch,
                                     case):
        cfg_path = tmp_path / "cfg.json"
        config = make_config("fig3", t_end=1.0, engine="classical-exact")
        config["scan"] = [0.5, 1.0]
        target, flags = str(cfg_path), []
        if case in NO_JOB_CASES:
            # no runner starts its job list
            monkeypatch.setattr(experiments, "_run_all", no_jobs)
        if case == "empty-gammas-appB":
            cfg_path.write_text(json.dumps({**make_config("appB"),
                                            "gammas": []}))
        elif case == "empty-gammas-fig5c":
            cfg_path.write_text(json.dumps({**make_config("fig5c"),
                                            "gammas": []}))
        elif case.startswith("repeated-scan"):
            # both points would write dg_ratio_1.csv
            scan = [1.0, 1.0] if case.endswith("equal") else [1.0, 1.0000001]
            cfg_path.write_text(json.dumps({**make_config("fig3"),
                                            "scan": scan}))
        elif case == "unknown-engine":
            cfg_path.write_text(json.dumps({**make_config("fig7-and"),
                                            "engine": "qutip"}))
        elif case == "unknown-engine-seed":
            # with a key only kmc reads: the engine is what is wrong
            cfg_path.write_text(json.dumps({"experiment": "fig3",
                                            "engine": "qutip", "seed": 3}))
        elif case == "list-experiment":
            cfg_path.write_text(json.dumps({"experiment": ["fig3"]}))
        elif case == "name-key":
            # a key named like make_config's first parameter
            cfg_path.write_text(json.dumps({**make_config("fig7-and"),
                                            "name": "fig3"}))
        elif case.startswith("null-"):
            # a null is refused like any other non-number, not dropped
            key = case[len("null-"):]
            base = make_config("fig3" if key == "scan" else "fig7-and")
            cfg_path.write_text(json.dumps({**base, key: None}))
        elif case == "directory-target":
            target = str(tmp_path)
        elif case == "undecodable-target":
            cfg_path.write_bytes(b"\xff\xfe{}")
        elif case == "negative-t-end":
            target, flags = "fig7-and", ["--t-end", "-1"]
        elif case == "nan-t-end":
            target, flags = "fig7-and", ["--t-end", "nan"]
        elif case == "text-t-end":
            cfg_path.write_text(json.dumps({**config, "t_end": "8"}))
        elif case == "no-gas-trajectories":
            target, flags = "fig4", ["--trajectories", "0"]
        elif case == "no-kmc-trajectories":
            target = "fig3"
            flags = ["--engine", "kmc", "--trajectories", "0"]
        elif case == "nan-gamma":
            target, flags = "fig7-and", ["--gamma", "nan"]
        elif case == "inf-kappa":
            target, flags = "fig7-nand", ["--kappa", "inf"]
        elif case == "negative-kappa":
            target, flags = "fig3", ["--kappa", "-1"]
        elif case == "negative-gammas":
            cfg_path.write_text(json.dumps({**make_config("appD"),
                                            "gammas": [-1.0, 1.0]}))
        elif case == "scalar-gammas":
            cfg_path.write_text(json.dumps({**make_config("appD"),
                                            "gammas": 1.0}))
        elif case == "nan-scan":
            cfg_path.write_text(json.dumps({**config,
                                            "scan": [float("nan")]}))
        elif case == "negative-c6":
            cfg_path.write_text(json.dumps({**make_config("appC"),
                                            "c6_values": [-1.0]}))
        elif case == "negative-delta-g-ratio":
            cfg_path.write_text(json.dumps({**make_config("fig5c"),
                                            "delta_g_ratio": -1.0}))
        elif case == "negative-seed":
            target, flags = "fig4", ["--seed", "-3"]
        elif case == "zero-gammas-kmc":
            # the default grid starts at gamma = 0
            target, flags = "fig5c", ["--engine", "kmc"]
        elif case == "zero-gamma-classical-exact":
            target = "fig3"
            flags = ["--gamma", "0", "--engine", "classical-exact"]
        elif case == "zero-gamma-kmc":
            target, flags = "fig7-and", ["--gamma", "0", "--engine", "kmc"]
        elif case == "zero-gammas-appB":
            # appB runs classical-exact beside quantum at every gamma
            cfg_path.write_text(json.dumps({"experiment": "appB",
                                            "gammas": [0.0, 1.0],
                                            "t_end": 1.0}))
        elif case == "invalid-json":
            cfg_path.write_text("{not json")
        elif case == "no-experiment":
            del config["experiment"]
            cfg_path.write_text(json.dumps(config))
        elif case.endswith("-threads"):
            # with a t_end the runner takes: refused as the jobs start
            threads = {"bad": "abc", "zero": "0", "negative": "-2"}
            monkeypatch.setenv("RYDSIM_THREADS", threads[case[:-8]])
            cfg_path.write_text(json.dumps({**config, "t_end": 5.0}))
        elif case == "gas-too-small":
            # under 336 atoms the shrunk gate is narrower than the
            # facilitation radius
            cfg_path.write_text(json.dumps(make_config(
                "fig4", n_atoms=300, instances=1, trajectories=2, t_end=5.0)))
        else:
            cfg_path.write_text(json.dumps({**make_config(
                "fig4", n_atoms=400, trajectories=2, t_end=5.0),
                "instances": 0}))
        assert main(["run", target, *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "engine failure" not in err
        if case.startswith("unknown-engine"):
            assert err.startswith("error: unknown engine 'qutip'")
        if case.endswith("-threads"):
            assert err == ("error: RYDSIM_THREADS must be a positive integer,"
                           f" got {threads[case[:-8]]!r}\n")

    @pytest.mark.parametrize("target, flags", [
        ("fig5c", ["--gamma", "3"]), ("fig5c", ["--n-atoms", "4"]),
        ("appE", ["--engine", "kmc"]), ("fig4", ["--kappa", "0.1"]),
        ("appC", ["--engine", "kmc"]),
        # only the kmc engine reads the sampling keys
        ("fig7-and", ["--seed", "3"]),
        ("fig3", ["--engine", "classical-exact", "--trajectories", "5"]),
        ("fig5c", ["--engine", "quantum", "--seed", "4"])])
    def test_unread_override_exits_2(self, tmp_path, capsys, monkeypatch,
                                     target, flags):
        # an override the experiment never reads would change only the
        # config hash; refused before any job starts
        monkeypatch.setattr(experiments, "_run_all", no_jobs)
        assert main(["run", target, *flags, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {target} does "
                                                  "not read")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**make_config(target), "foo": 1}))
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("experiment, trim", [
        ("fig3", {"scan": [1.0], "engine": "classical-exact"}),
        ("fig5c", {"gammas": [1.0], "engine": "classical-exact"}),
        ("appE", {"gammas": [1.0], "scan": [2.0]}),
        # appE at its default grid: 120 quantum runs, none of them started
        ("appE", {}),
    ])
    def test_t_end_below_work_time_exits_2(self, tmp_path, capsys,
                                           monkeypatch, experiment, trim):
        # refused before any engine runs: every engine raises if called
        no_engines(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(experiment, **trim)))
        argv = ["run", str(cfg_path), "--t-end", "2", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_end 2 is below the device work time 4.6")

    @pytest.mark.parametrize("experiment, trim", [
        ("fig3", {"engine": "kmc"}),
        ("fig5c", {"gammas": [0.5, 1.0], "engine": "kmc"})],
        ids=["fig3", "fig5c"])
    def test_kmc_first_record_after_work_time_exits_2(
            self, tmp_path, capsys, monkeypatch, experiment, trim):
        # kmc records from t_end / RECORD_POINTS: at t_end 1000 its first
        # record time, 5, comes after the work time 4.6, which it could not
        # read; refused before any engine runs
        no_engines(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(experiment, **trim)))
        argv = ["run", str(cfg_path), "--t-end", "1000", "--out",
                str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: t_end 1000 puts kmc's first record time 5 after the "
            "device work time 4.6")

    @pytest.mark.parametrize("experiment, trim, key", [
        ("fig3", {"scan": [1.0]}, "dg_ratio_1"),
        ("fig5c", {"gammas": [1.0]}, "forward_gamma_1"),
        ("fig7-and", {}, "input_11"),
        ("fig7-nand", {}, "input_10")],
        ids=["fig3", "fig5c", "fig7-and", "fig7-nand"])
    def test_kmc_honours_trajectories_and_seed(self, monkeypatch, experiment,
                                               trim, key):
        monkeypatch.setenv("RYDSIM_THREADS", "1")

        def kmc_series(seed):
            config = make_config(experiment, engine="kmc", trajectories=20,
                                 seed=seed, **trim)
            return run_experiment(config)["series"][key]
        a, b = kmc_series(1), kmc_series(2)
        assert a.metadata["n_trajectories"] == 20
        assert a.metadata["master_seed"] == 1
        assert not (a.output_count == b.output_count).all()

    def test_fig5c_kmc_replays_from_summary(self, tmp_path, monkeypatch):
        # the default grid's gamma = 0 runs are no rate equation, so the
        # grid starts above it
        monkeypatch.setenv("RYDSIM_THREADS", "1")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config("fig5c",
                                                   gammas=[0.5, 1.0])))
        flags = ["--engine", "kmc", "--trajectories", "50", "--seed", "3"]
        assert main(["run", str(cfg_path), *flags,
                     "--out", str(tmp_path / "a")]) == 0
        summary = tmp_path / "a" / "fig5c" / "summary.json"
        assert main(["run", str(summary), "--out", str(tmp_path / "b")]) == 0
        meta = json.loads(summary.read_text())["series"]["forward_gamma_1"]
        assert (meta["n_trajectories"], meta["master_seed"]) == (50, 3)
        files = sorted(p.name for p in (tmp_path / "a" / "fig5c").iterdir())
        assert len(files) == 6
        for name in files:
            assert ((tmp_path / "a" / "fig5c" / name).read_bytes()
                    == (tmp_path / "b" / "fig5c" / name).read_bytes())

    @pytest.mark.parametrize("experiment, trim", [
        ("fig5c", {"engine": "classical-exact", "gammas": [0.5, 1.0],
                   "t_end": 5.0}),
        ("fig4", {"n_atoms": 400, "instances": 2, "trajectories": 4,
                  "t_end": 10.0}),
        ("fig7-and", {"engine": "classical-exact"}),
        # kmc with site columns and the NOT pulse's schedule
        ("fig7-nand", {"engine": "kmc", "trajectories": 50, "seed": 3})],
        ids=["fig5c", "fig4", "fig7-and", "fig7-nand-kmc"])
    def test_independent_of_worker_count(self, monkeypatch, experiment,
                                         trim):
        config = make_config(experiment, **trim)
        results = []
        for workers in ("1", "2"):
            monkeypatch.setenv("RYDSIM_THREADS", workers)
            results.append(run_experiment(config))
        one, two = results
        for key in ("scan_rows", "plateau_on", "plateau_off"):
            assert one.get(key) == two.get(key)
        assert one["series"] and sorted(one["series"]) == sorted(two["series"])
        for key, ts in one["series"].items():
            other = two["series"][key]
            for name in ("times", "site_density", "output_count",
                         "output_stderr"):
                assert np.array_equal(getattr(ts, name),
                                      getattr(other, name))
            assert ts.metadata == other.metadata

    def test_pool_starts_at_most_one_worker_per_job(self, monkeypatch):
        # a process pool forks all its workers at once, so no more are
        # asked for than there are jobs.  The pool here runs its jobs
        # in-process, last first, and hands the results back in job order,
        # as a process pool does: pooled, each run comes back under its
        # own key, in the jobs' order, as it does in one process
        import concurrent.futures
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return reversed([fn(job) for job in reversed(list(jobs))])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        chain = build_transport_chain(3)
        jobs = {(engine, gamma): (chain, SimParams(1.0, gamma, 0.0), 2.0,
                                  {"engine": engine})
                for gamma in (2.0, 0.5)
                for engine in ("classical-exact", "quantum")}
        jobs["kmc", 0.5] = (chain, SimParams(1.0, 0.5, 0.0), 2.0,
                            {"engine": "kmc", "seed": 3, "trajectories": 20})
        runs = {}
        for workers in ("1", "64"):
            monkeypatch.setenv("RYDSIM_THREADS", workers)
            runs[workers] = experiments._run_all(jobs)
        assert asked == [5]
        assert list(runs["1"]) == list(runs["64"]) == list(jobs)
        for key, (device, params, t_end, keywords) in jobs.items():
            alone = experiments.run_device(device, params, t_end, **keywords)
            for ts in (runs["1"][key], runs["64"][key]):
                assert np.array_equal(ts.site_density, alone.site_density)
                assert ts.metadata == alone.metadata


@pytest.mark.parametrize("key", FLAGS)
def test_flag_parses_to_its_keys_kind(key):
    # each flag fills its config key as KEYS types it; --engine takes the
    # names in ENGINES and nothing else
    parser = build_parser()
    flag = "--" + key.replace("_", "-")
    if key in KEYS:
        kind = KEYS[key][0]
        value = getattr(parser.parse_args(["run", "fig3", flag, "3"]), key)
        assert type(value) is kind and value == 3
        if kind is int:
            with pytest.raises(SystemExit):
                parser.parse_args(["run", "fig3", flag, "2.5"])
    else:
        for engine in ENGINES:
            args = parser.parse_args(["run", "fig3", flag, engine])
            assert getattr(args, key) == engine
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig3", flag, "qutip"])


def test_keys_cover_every_config_key():
    # every key an experiment reads has a row in KEYS (the engine: ENGINES)
    for _, defaults, optional, _ in EXPERIMENTS.values():
        assert set(defaults) | set(optional) <= set(KEYS) | {"engine"}


class TestReductions:
    """What fig4 and appB make of their runs, each run replaced by a
    series built here."""

    N = 3  # fig4 instances

    @pytest.fixture
    def fig4(self, monkeypatch):
        """fig4's jobs, its runs of each state by instance, and its
        result."""
        rng = np.random.default_rng(5)
        times = experiments._kmc_times(20.0)
        events_max = {"on": (30, 20, 10), "off": (40, 60, 50)}
        parts = {state: [TimeSeries(times, np.zeros((times.size, 0)),
                                    rng.uniform(0.0, 3.0, times.size),
                                    rng.uniform(0.1, 0.5, times.size),
                                    {"events_mean": 1.0 + i, "blocks": 1,
                                     "steps": 9, "events_max": top[i]})
                         for i in range(self.N)]
                 for state, top in events_max.items()}
        jobs = {}

        def run_all(given):
            jobs.update(given)
            return {(name, i): parts[name.removeprefix("gas-switch-")][i]
                    for name, i in given}
        monkeypatch.setattr(experiments, "_run_all", run_all)
        result = run_experiment(make_config(
            "fig4", n_atoms=400, instances=self.N, trajectories=5,
            t_end=20.0))
        return jobs, parts, result

    def test_fig4_stderr_adds_instances_in_quadrature(self, fig4):
        _, parts, result = fig4
        for key, part in parts.items():
            expect = np.sqrt(sum(ts.output_stderr**2 for ts in part)) / self.N
            np.testing.assert_allclose(result["series"][key].output_stderr,
                                       expect, rtol=1e-12)

    def test_fig4_events_max_is_max_over_instances(self, fig4):
        _, _, result = fig4
        assert result["series"]["on"].metadata["events_max"] == 30
        assert result["series"]["off"].metadata["events_max"] == 60

    def test_fig4_plateau_reads_each_instances_last_20_records(self, fig4):
        # of its 200 record times: the last tenth
        _, parts, result = fig4
        for key, part in parts.items():
            assert part[0].times.size == 200
            expect = np.mean([np.mean(ts.output_count[-20:]) for ts in part])
            assert result[f"plateau_{key}"] == pytest.approx(expect,
                                                             rel=1e-12)
        assert result["on_off_ratio"] == pytest.approx(
            result["plateau_on"] / result["plateau_off"], rel=1e-12)

    def test_fig4_on_and_off_instance_share_their_gas(self, fig4):
        # one kmc job per (device name, instance): instance i's on and off
        # devices in one gas, as build_gas_switch makes them from seed + i,
        # with one trajectory seed and no per-site sums
        jobs, _, _ = fig4
        seed = make_config("fig4")["seed"]
        assert sorted(jobs) == sorted((f"gas-switch-{state}", i)
                                      for state in ("on", "off")
                                      for i in range(self.N))
        for i in range(self.N):
            (on, *on_rest), (off, *off_rest) = (
                jobs[f"gas-switch-{state}", i] for state in ("on", "off"))
            assert (on.name, off.name) == ("gas-switch-on", "gas-switch-off")
            np.testing.assert_array_equal(on.network.positions,
                                          off.network.positions)
            for built, dev in zip(experiments.build_gas_switch(seed + i, 400),
                                  (on, off)):
                np.testing.assert_array_equal(built.network.static_detunings,
                                              dev.network.static_detunings)
            assert on_rest == off_rest == [
                GAS_PARAMS, 20.0,
                {"engine": "kmc", "seed": 1000 * seed + i, "trajectories": 5,
                 "site_density": False}]
        first, second = (jobs["gas-switch-on", i][0] for i in (0, 1))
        assert not np.array_equal(first.network.positions,
                                  second.network.positions)

    def test_appB_row_is_max_abs_site_density_difference(self, monkeypatch):
        # per gamma a quantum run and a classical one: the row is the
        # largest |difference| of any site at any time, not a mean
        times = np.linspace(0.0, 1.0, 5)
        quantum_dens, classical_dens = np.zeros((5, 3)), np.full((5, 3), 0.01)
        quantum_dens[2, 1] = 0.4
        classical_dens[4, 0] = 0.3
        runs = {key: TimeSeries(times, dens, dens.sum(axis=1))
                for key, dens in (("quantum_gamma_0.5", quantum_dens),
                                  ("classical_gamma_0.5", classical_dens),
                                  ("quantum_gamma_1", quantum_dens),
                                  ("classical_gamma_1", 0.5 * classical_dens))}
        jobs = {}

        def run_all(given):
            jobs.update(given)
            return {key: runs[key] for key in given}
        monkeypatch.setattr(experiments, "_run_all", run_all)
        result = run_experiment({"experiment": "appB", "gammas": [0.5, 1.0]})
        # each series is written under the name of the engine that ran it
        assert {key: keywords["engine"]
                for key, (_, _, _, keywords) in jobs.items()} == {
            "quantum_gamma_0.5": "quantum",
            "classical_gamma_0.5": "classical-exact",
            "quantum_gamma_1": "quantum",
            "classical_gamma_1": "classical-exact"}
        assert result["series"] == runs
        [(g0, d0), (g1, d1)] = result["scan_rows"]
        assert (g0, g1) == (0.5, 1.0)
        assert d0 == pytest.approx(0.39) and d1 == pytest.approx(0.395)


class TestScan:
    def test_scan_writes_csv_only(self, tmp_path):
        # trim the grid through a config file to keep the test fast
        config = make_config("fig3", t_end=6.0)
        config["scan"] = [0.5, 1.0, 2.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["scan", str(cfg_path), "--out", str(tmp_path)]) == 0
        out = tmp_path / "fig3"
        scan = (out / "scan.csv").read_text().splitlines()
        assert scan[0] == "delta_g_over_delta_f,N_o_at_t_w,t_w"
        assert len(scan) == 4
        assert not list(out.glob("dg_ratio_*.csv"))

    def test_scan_csv_passes_input_strings_through(self, tmp_path):
        # fig7's "01"-style inputs go through the shared CSV writer as
        # they are, and the numbers keep their 9-digit format
        config = make_config("fig7-and", engine="classical-exact")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["scan", str(cfg_path), "--out", str(tmp_path)]) == 0
        result = run_experiment(config)
        scan = (tmp_path / "fig7-and" / "scan.csv").read_bytes()
        assert scan == per_value_csv(result["scan_header"],
                                     result["scan_rows"]).encode()
        assert scan.splitlines()[2].startswith(b"01,")

    def test_scan_rejects_non_scan_experiment(self, tmp_path, capsys,
                                              monkeypatch):
        # refused before any job list starts
        monkeypatch.setattr(experiments, "_run_all", no_jobs)
        for target in ("appC", "fig4"):
            assert main(["scan", target, "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                f"error: experiment {target!r} has no scan output\n")


class TestValidate:
    def test_validation_passes(self, capsys):
        assert run_validation()
        out = capsys.readouterr().out
        for name in ("rabi", "decay", "two-state-relaxation",
                     "cross-engine-gamma-10",
                     "cross-engine-gamma-0.1-expected-divergent",
                     "conservation", "generator-column-sums"):
            assert f"PASS  {name}: " in out
        assert "FAIL" not in out

    def test_raising_check_reported_as_failure(self, capsys, monkeypatch):
        # a check that raises fails with the exception as its detail, and
        # every other check still runs
        monkeypatch.setenv("RYDSIM_THREADS", "1")

        def broken(*args, **kwargs):
            raise RuntimeError("no sampler")
        monkeypatch.setattr(classical, "gillespie_ensemble", broken)
        assert not run_validation()
        out = capsys.readouterr().out
        assert "FAIL  decay: RuntimeError: no sampler\n" in out
        assert out.count("PASS  ") == len(cli.CHECKS) - 1 == 6
        assert out.endswith("validation FAILED\n")

    def test_coarse_tol_reported_as_failure(self, capsys, monkeypatch):
        # a drive 10% too strong fails the Rabi oracle, which reports it
        # as a FAIL line instead of raising
        build = quantum.build_hamiltonian
        monkeypatch.setattr(
            quantum, "build_hamiltonian",
            lambda network, detunings, omega: build(network, detunings,
                                                    1.1 * omega))
        assert not run_validation()
        assert "FAIL  rabi" in capsys.readouterr().out

    def test_recorded_leak_reported_as_failure(self, capsys, monkeypatch):
        # a quantum Liouvillian whose population columns sum to 1e-11: too
        # small for the engine's own trace_leak limit (1e-10) to stop appB,
        # but validate reads the worst recorded value against 1e-12
        monkeypatch.setenv("RYDSIM_THREADS", "1")
        build = quantum.liouvillian

        def leaky(ham, params):
            r, rect = build(ham, params)
            return to_record(to_scipy(r) + 1e-11 * sp.eye(ham.dim ** 2)), rect
        monkeypatch.setattr(quantum, "liouvillian", leaky)
        assert not run_validation()
        out = capsys.readouterr().out
        assert "FAIL  generator-column-sums" in out
        assert "PASS  conservation" in out

    def test_negative_eigenvalue_reported_as_failure(self, capsys,
                                                     monkeypatch):
        # the noisy final rho with Re rho_01 raised by 1.4, past what any
        # populations allow (|rho_01|^2 <= rho_00 rho_11 <= 1/4): trace,
        # hermiticity and diagonal are as they were, one eigenvalue is < 0
        monkeypatch.setenv("RYDSIM_THREADS", "1")
        run = cli.run_experiment

        def skewed(config):
            result = run(config)
            x = result["series"]["quantum_gamma_1"].final_state
            x.reshape((isqrt(x.size),) * 2)[0, 1] += 2.0
            return result
        monkeypatch.setattr(cli, "run_experiment", skewed)
        assert not run_validation()
        out = capsys.readouterr().out
        assert "FAIL  conservation" in out and "negativity 0.0e+00" in out
        assert "PASS  generator-column-sums" in out


def test_run_experiment_rejects_unknown():
    from rydsim.experiments import ExperimentError
    with pytest.raises(ExperimentError):
        run_experiment({"experiment": "nope"})


@pytest.mark.parametrize("scan", [[], [1.0, 1.0]], ids=["empty", "repeated"])
def test_run_experiment_checks_its_config(monkeypatch, scan):
    # a config that did not come from make_config is checked all the same
    from rydsim.experiments import ExperimentError
    monkeypatch.setattr(experiments, "_run_all", no_jobs)
    with pytest.raises(ExperimentError, match="scan must not be empty"):
        run_experiment({**make_config("fig3"), "scan": scan})


def test_run_experiment_fills_defaults():
    # a partial config runs as make_config completes it, to the bit
    one = run_experiment({"experiment": "fig7-and", "t_end": 5.0})
    two = run_experiment(make_config("fig7-and", t_end=5.0))
    assert list(one["config"].items()) == list(two["config"].items())
    assert one["config_hash"] == two["config_hash"]
    assert sorted(one["series"]) == sorted(two["series"])
    for key, ts in one["series"].items():
        for name in ("times", "site_density", "output_count"):
            assert np.array_equal(getattr(ts, name),
                                  getattr(two["series"][key], name))


def test_config_hash_embedded(tmp_path):
    main(tiny_fig4_args(tmp_path))
    summary = json.loads((tmp_path / "fig4" / "summary.json").read_text())
    from rydsim.timeseries import config_hash
    assert summary["config_hash"] == config_hash(summary["config"])


# Serial runs on each engine and a small fig4, after `from rydsim import
# cli`: the modules each run imports inside `cli.main`, and the scipy
# modules loaded at the end.
MODULE_CHECK = """
import json, sys
from rydsim import cli
before = set(sys.modules)
new = []
for args in (["--engine", "quantum"], ["--engine", "classical-exact"],
             ["--engine", "kmc", "--trajectories", "20"]):
    assert cli.main(["run", "fig3.json", "--out", "out", *args]) == 0
    new.append(sorted(set(sys.modules) - before))
assert cli.main(["run", "fig4", "--n-atoms", "400", "--instances", "1",
                 "--trajectories", "5", "--t-end", "20", "--out", "out"]) == 0
new.append(sorted(set(sys.modules) - before))
print(json.dumps([new, sorted(m for m in sys.modules
                              if m.split(".")[0] == "scipy")]))
"""


def test_serial_runs_import_nothing_and_no_scipy_module(tmp_path,
                                                        child_env):
    (tmp_path / "fig3.json").write_text(json.dumps(
        {"experiment": "fig3", "scan": [1.0], "t_end": 5.0}))
    done = subprocess.run([sys.executable, "-c", MODULE_CHECK], cwd=tmp_path,
                          env={**child_env, "RYDSIM_THREADS": "1"},
                          capture_output=True, text=True, check=True)
    new, scipy = json.loads(done.stdout.splitlines()[-1])
    assert new == [[]] * 4
    assert scipy == ["scipy.sparse._sparsetools"]
