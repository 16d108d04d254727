"""Tests for the CLI entry point."""

import pytest

from repro.cli import EXPERIMENTS, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_quick_placement_runs(capsys):
    assert main(["placement", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "placed on leaves" in out


def test_quick_table8_runs(capsys):
    assert main(["table8", "--quick"]) == 0
    assert "Table VIII" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_simulate_non_finite_horizon_is_usage_error(horizon, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "run", "--horizon-s", horizon])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "horizon_s out of range" in err
    assert "Traceback" not in err
