"""Tests for the RM cost profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.rm.profiles import RM_PROFILES, HeartbeatStyle, LaunchStructure, RMProfile


class TestRegistry:
    def test_all_six_rms_present(self):
        assert set(RM_PROFILES) == {"slurm", "lsf", "sge", "torque", "openpbs", "eslurm"}

    def test_names_match_keys(self):
        for key, profile in RM_PROFILES.items():
            assert profile.name == key


class TestCalibrationInvariants:
    """Orderings Fig. 7 depends on, pinned as tests."""

    def test_eslurm_lowest_rpc_cost(self):
        eslurm = RM_PROFILES["eslurm"].rpc_cpu_us
        assert all(p.rpc_cpu_us >= eslurm for p in RM_PROFILES.values())

    def test_slurm_largest_per_node_memory(self):
        slurm = RM_PROFILES["slurm"].vmem_per_node_kb
        assert all(p.vmem_per_node_kb <= slurm for p in RM_PROFILES.values())

    def test_eslurm_lowest_rss(self):
        eslurm = RM_PROFILES["eslurm"]
        assert all(
            p.base_rss_mb >= eslurm.base_rss_mb and p.rss_per_node_kb >= eslurm.rss_per_node_kb
            for p in RM_PROFILES.values()
        )

    def test_sge_openpbs_keep_standing_connections(self):
        assert RM_PROFILES["sge"].persistent_socket_frac >= 0.8
        assert RM_PROFILES["openpbs"].persistent_socket_frac >= 0.5
        assert RM_PROFILES["slurm"].persistent_socket_frac == 0.0
        assert RM_PROFILES["eslurm"].persistent_socket_frac == 0.0

    def test_pbs_family_launches_serially(self):
        for name in ("sge", "torque", "openpbs"):
            assert RM_PROFILES[name].launch_structure is LaunchStructure.SERIAL

    def test_eslurm_heartbeat_via_satellites(self):
        assert RM_PROFILES["eslurm"].heartbeat_style is HeartbeatStyle.SATELLITE

    def test_only_eslurm_avoids_master_bursts(self):
        assert RM_PROFILES["eslurm"].burst_socket_frac == 0.0
        assert RM_PROFILES["slurm"].burst_socket_frac > 0.2


class TestValidation:
    def test_invalid_values_rejected(self):
        base = RM_PROFILES["slurm"]
        with pytest.raises(ConfigurationError):
            base.with_overrides(rpc_cpu_us=-1)
        with pytest.raises(ConfigurationError):
            base.with_overrides(persistent_socket_frac=2.0)
        with pytest.raises(ConfigurationError):
            base.with_overrides(tree_width=1)
        with pytest.raises(ConfigurationError):
            base.with_overrides(heartbeat_interval_s=0)

    @pytest.mark.parametrize(
        "field",
        [
            "rpc_cpu_us",
            "launch_cpu_ms",
            "sched_cpu_ms",
            "base_vmem_mb",
            "rss_per_job_kb",
            "burst_socket_frac",
            "launch_ack_s",
            "reboot_minutes",
        ],
    )
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_costs_must_be_finite_and_non_negative(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            RM_PROFILES["eslurm"].with_overrides(**{field: bad})

    @pytest.mark.parametrize(
        "field", ["heartbeat_interval_s", "scheduler_tick_s", "crash_node_hours"]
    )
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_periods_must_be_positive(self, field, bad):
        # a scheduler tick of 0 would re-arm at the same instant forever
        with pytest.raises(ConfigurationError, match=field):
            RM_PROFILES["slurm"].with_overrides(**{field: bad})

    def test_crash_node_hours_may_be_never(self):
        never = RM_PROFILES["slurm"].with_overrides(crash_node_hours=float("inf"))
        assert never.crash_node_hours == float("inf")
        with pytest.raises(ConfigurationError, match="scheduler_tick_s"):
            RM_PROFILES["slurm"].with_overrides(scheduler_tick_s=float("inf"))

    def test_with_overrides_copies(self):
        slurm = RM_PROFILES["slurm"]
        fast = slurm.with_overrides(rpc_cpu_us=1.0)
        assert fast.rpc_cpu_us == 1.0
        assert slurm.rpc_cpu_us != 1.0
