"""Tests that malformed what-if requests are refused at the CLI boundary.

A refused request exits with usage code 2 and names the offending value
on stderr while the arguments are parsed, so no simulation runs.
"""

import pytest

from repro.cli import main

SMALL_WHATIF = ["whatif", "--n-nodes", "8", "--n-jobs", "2", "--horizon-s", "600", "--at-s", "10"]


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "Traceback" not in err
    # rejected while parsing: no progress line, so nothing ran
    assert out == ""
    return err


class TestWire:
    @pytest.mark.parametrize("argv, message", [
        ([*SMALL_WHATIF, "--perturb", "teleport"], "unknown perturbation kind 'teleport'"),
        ([*SMALL_WHATIF, "--perturb", "fail-node", "--duration-s", "-1"],
         "fail-node: duration_s must be positive"),
        (["whatif", "--n-nodes", "8", "--at-s", "999999"],
         "at_s=999999.0 must lie in [0, horizon_s=86400.0)"),
    ], ids=["teleport", "negative-duration", "at-s-beyond-horizon"])
    def test_malformed_whatif_rejected(self, argv, message, capsys):
        assert message in usage_error(capsys, argv)

    def test_whatif_cli_rejects_at_s_beyond_horizon(self, capsys):
        # the explicit ``run`` sub-verb parses the same as the bare verb
        err = usage_error(capsys, ["whatif", "run", "--n-nodes", "8", "--at-s", "999999"])
        assert "at_s=999999.0 must lie in [0, horizon_s=86400.0)" in err
