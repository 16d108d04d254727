"""The repro.api facade: configs, run_simulation, quick_cluster."""

import numpy as np
import pytest

from repro.api import SimulationConfig, TelemetryConfig, quick_cluster, run_simulation
from repro.errors import ConfigurationError


class TestSimulationConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            SimulationConfig("eslurm")  # positional use is an error

    def test_unknown_rm_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(rm="htcondor")

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon_s"):
            SimulationConfig(horizon_s=horizon)

    def test_more_satellites_than_nodes_rejected(self):
        SimulationConfig(n_nodes=64, n_satellites=64)
        with pytest.raises(ConfigurationError, match="got 65 > 64"):
            SimulationConfig(n_nodes=64, n_satellites=65)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_nodes", 64.5),
            ("n_nodes", True),
            ("n_satellites", 1.5),
            ("n_jobs", 5.5),
            ("seed", -1),
            ("seed", 2.0),
            ("failures", 1),
            ("malleable", "yes"),
            ("monitoring", "yes"),
        ],
    )
    def test_malformed_field_rejected_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            SimulationConfig(**{field: value})

    def test_numpy_integers_stored_as_int(self):
        cfg = SimulationConfig(
            n_nodes=np.int64(64), n_satellites=np.int32(2), n_jobs=np.uint16(8), seed=np.int8(3)
        )
        assert [(type(v), v) for v in (cfg.n_nodes, cfg.n_satellites, cfg.n_jobs, cfg.seed)] == [
            (int, 64), (int, 2), (int, 8), (int, 3)
        ]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"estimator": "bogus"}, "unknown estimator 'bogus'"),
            ({"rm": "slurm", "estimator": "auto"}, "rm 'slurm' needs an estimator object"),
            ({"estimator": object()}, "must have estimate"),
        ],
        ids=["unknown-string", "auto-without-eslurm", "no-estimate-observe"],
    )
    def test_bad_estimator_rejected(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            SimulationConfig(**kwargs)

    def test_estimator_object_and_auto_accepted(self):
        class Fixed:
            def estimate(self, job, now):
                return 60.0

            def observe(self, job, now):
                pass

        assert SimulationConfig(estimator="auto").estimator == "auto"
        SimulationConfig(rm="slurm", estimator=Fixed())

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(AttributeError):
            cfg.rm = "slurm"


class TestQuickClusterFlags:
    @pytest.mark.parametrize("failures", [False, True])
    @pytest.mark.parametrize("monitoring", [None, False, True])
    def test_flag_combinations_decoupled(self, failures, monitoring):
        cluster = quick_cluster(n_nodes=32, failures=failures, monitoring=monitoring)
        expect_monitor = failures if monitoring is None else monitoring
        assert cluster.failures._started is failures
        assert cluster.monitor._started is expect_monitor


class TestRunSimulation:
    def test_top_level_import(self):
        from repro import SimulationConfig as C
        from repro import run_simulation as r

        assert C is SimulationConfig and r is run_simulation

    def test_runs_and_reports(self):
        result = run_simulation(
            SimulationConfig(rm="slurm", n_nodes=64, seed=3, n_jobs=40)
        )
        assert result.config.rm == "slurm"
        assert result.report.schedule is not None
        assert result.report.schedule.n_completed > 0
        assert result.telemetry is None  # off by default

    def test_overrides_on_top_of_config(self):
        result = run_simulation(
            SimulationConfig(rm="eslurm", n_nodes=64), rm="slurm", n_jobs=8
        )
        assert result.config.rm == "slurm"
        assert result.config.n_jobs == 8

    def test_telemetry_snapshot_collected(self):
        result = run_simulation(
            rm="slurm", n_nodes=64, seed=3, n_jobs=30,
            telemetry=TelemetryConfig(enabled=True),
        )
        assert result.telemetry is not None
        assert result.telemetry["counters"]["sim.events"] > 0

    def test_events_and_sim_time_match_the_counters(self):
        # The result fields are the simulator's own tallies: the same
        # with telemetry off as the counters of a recorded run, and the
        # time of the last processed event, not the horizon.
        config = SimulationConfig(rm="eslurm", n_nodes=256, n_jobs=100, horizon_s=1000.37)
        plain = run_simulation(config)
        recorded = run_simulation(config, telemetry=TelemetryConfig(enabled=True))
        counters = recorded.telemetry["counters"]
        assert (plain.events, plain.sim_time_s) == (141, 990.0)
        assert (recorded.events, recorded.sim_time_s) == (141, 990.0)
        assert (counters["sim.events"], counters["sim.time_s"]) == (141, 990.0)

    def test_session_restored_after_run(self):
        from repro.telemetry import facade as telemetry

        run_simulation(
            rm="slurm", n_nodes=32, n_jobs=10, telemetry=TelemetryConfig(enabled=True)
        )
        assert telemetry.active() is None
