"""Recorded pin of per-daemon accounting on a small ESLURM day.

The goldens pin only the master and schedule metrics, so this file pins
what the satellites record: for every daemon, the SHA-256 of its
``DaemonAccounting.summary()`` plus its ``cpu_util`` sample times and
values.  The digests were recorded while every satellite still had its
own re-armed sampler timer; the satellite tier now shares one timer,
and the series must not move.

The day has failures and monitoring on, and one satellite's node goes
down for six hours, so that satellite passes through FAULT to DOWN and
is sampled in every state.  At a 30 s interval the samples fall on
ESLURM's heartbeat and scheduler-tick instants: those timers then fire
after the master's sample and before the satellites', so a charge moved
across a sample boundary shows in the digests.
"""

import hashlib
import json

import pytest

from repro.api import prepare_rm_day, quick_cluster
from repro.rm.satellite import SatelliteState

DAY = 86_400.0

#: sample interval -> owner -> SHA-256 of its summary and cpu_util series
DIGESTS = {
    60.0: {
        "eslurm.master": "2872eec622509ba75833f58b70a56db831c6feb5339f9b7934d658742047e6a5",
        "satellite.sat00": "f9c758b8799fe3454ba84a4f802519b56390a52651e1c94404181ff9cc8d93ab",
        "satellite.sat01": "19b5849b92684490e6caeef6cf6b992764faba0784205287482fa954bd90b90a",
        "satellite.sat02": "ee0c5a6497f068951d2ab6aeead72f8c5a51aeebd7864fd2610b5af71f7260f2",
        "satellite.sat03": "088385882bb1ea7b774723c7b7a014b8c60e1d82f6e7ff5ef3b25c343195cd61",
        "satellite.sat04": "d83101d3e2fbb47996f6801b9597ac1993bd3295d9faf6c3ed999561e3c6ec9e",
        "satellite.sat05": "93e254534032d939739a60c3df2d4de0152acf3f0a2a4c1e0432e29cb8e3a9c9",
        "satellite.sat06": "536bd1ce062fcf336a4435c3da458630a50002297f632a2597c899c33b13376f",
        "satellite.sat07": "9a6ed4de4f2b8ee0c95e1ab4a0ef80da4cc6ff2722c5d8a84cacff2fde880f35",
    },
    30.0: {
        "eslurm.master": "8929177af1f0778d4b2dcda169c48edb5772070f387cb10d3b939f02a7adfa00",
        "satellite.sat00": "7b5fa4fd732a871cdb61260fffc3d1e7aeb3f467418dc0642e8b62ac046fdef9",
        "satellite.sat01": "5f4ad9f2a9af2002881c52ca28d4ed9f9181f31c6acba9136b44e351a7962343",
        "satellite.sat02": "a12cb7830ab47a991fa2a633d12d535f85b5a04d3360f043bf8ccb364792c5bf",
        "satellite.sat03": "09ff89c66b673835114bf05db142183e6ad8a66579a3420f96ac8170db1f7dd5",
        "satellite.sat04": "305d93b6fb0e1719753757503b9b10d0629f59a3ae4fe27875f1ae398cde4ee4",
        "satellite.sat05": "1dedb38055d4b14b097d5ccd7fda65190a23f8bd757b5b5c23e47dfbdbefd7ca",
        "satellite.sat06": "2ec11b3c91e7a6f471a7e9f5b913ab4abf7e28afa80f902238097322c478fead",
        "satellite.sat07": "e7fe4d690f12c2e373d9d280917e1c54b4254f3bbc51a84fe15f1ce8527c4e37",
    },
}


def _digest(acct) -> str:
    series = acct.cpu_util
    payload = {
        "summary": acct.summary(),
        "times": series.times.tolist(),
        "values": series.values.tolist(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _day(interval_s):
    cluster = quick_cluster(1024, n_satellites=8, seed=5, failures=True, monitoring=True)
    rm, jobs = prepare_rm_day(
        "eslurm", cluster, n_jobs=300, seed=5, horizon_s=DAY, sample_interval_s=interval_s
    )
    sat = rm.sat_pool.daemons[3].node_id
    cluster.sim.call_at(14_407.5, lambda: cluster.fail_nodes([sat]))
    cluster.sim.call_at(36_011.25, lambda: cluster.recover_nodes([sat]))
    rm.run_trace(jobs, until=cluster.sim.now + DAY)
    return rm


@pytest.mark.parametrize("interval_s", sorted(DIGESTS))
def test_daemon_accounting_pinned(interval_s):
    rm = _day(interval_s)
    daemons = [rm.master_acct] + [d.acct for d in rm.sat_pool.daemons]
    assert {acct.owner: _digest(acct) for acct in daemons} == DIGESTS[interval_s]
    # every satellite sampled at every instant, whatever its state
    assert rm.sat_pool.daemons[3].state is SatelliteState.DOWN
    assert all(len(acct.cpu_util) == DAY / rm.sample_interval_s for acct in daemons)
