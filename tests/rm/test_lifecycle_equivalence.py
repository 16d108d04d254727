"""Recorded lifecycle pins: the FSM against the generator reference's outputs.

The RM once carried two job lifecycles, the flat table-driven FSM
(:class:`~repro.rm.lifecycle.JobLifecycle`) and a generator reference
run as a kernel process.  The reference is gone; what it computed stays
here as SHA-256 digests recorded from it, each cell asserted equal
between the two engines when it was recorded.  A cell replays one
seeded day and hashes every observable: per job (state, submit, start,
end, width), master CPU, crash count, resize counters, free nodes and
the clock, across {rigid, malleable} x {clean, node-failure,
master-crash}.  The malleable column pins the work-conserving resize
semantics (a width-``w`` allocation burns ``w`` node-seconds per
second of a fixed budget, the DMR model); the crash column the held
completion and the orphaning kills.

Seed 3 is the deterministic matrix, four more seeds ride the fast lane,
and ``--slow`` checks one digest per seed over its six cells for seeds
0-63.  The last class pins the payload the former
``lifecycle-equivalence`` oracle relation compared: master accounting,
schedule metrics, broadcasts and the domain telemetry of a 256-node day
with failures on, plus, each on its own, that day's event-heap peak and
its network traffic telemetry.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.api import SimulationConfig, TelemetryConfig, canonical_json, run_simulation
from repro.cluster.failures import FailureModel
from repro.cluster.spec import ClusterSpec
from repro.rm.eslurm import EslurmRM
from repro.rm.profiles import ESLURM
from repro.sched.backfill import BackfillScheduler
from repro.simkit import Simulator
from repro.workload.synthetic import WorkloadConfig, generate_trace

DAY = 86_400.0
N_NODES = 128
N_JOBS = 25

SCENARIOS = ("clean", "node-failure", "master-crash")
SHAPES = ((False, "rigid"), (True, "malleable"))

#: ~3 master crashes over the day on a 128-node machine (mtbf = 8 h)
_CRASHY = dataclasses.replace(ESLURM, crash_node_hours=8.0 * N_NODES, reboot_minutes=10.0)

#: seed -> "scenario-shape" -> digest of the generator arm's fingerprint
CELL_DIGESTS = {
    3: {
        "clean-rigid": "c9ae830c0a21c554e0763400b0e62f14e30432917fa921b654f4c54ebac47747",
        "clean-malleable": "761c3a8f7ee54f0153b542ef9cf5462abf1deea4f10dbb7e4608c8829e0905b7",
        "node-failure-rigid": "c46ac8dd303a274ab392163849c2c68b1b997fbda75b9a212b63c913ccd06ff3",
        "node-failure-malleable": "b80fc1218cb249eb86c03e5fbf8da8567da75a8cf1cb23a2ec9724fcd1039b22",
        "master-crash-rigid": "28d195bd98b154997c3b5a46ed16d863c51123cc0cd6f316846e2572da03c0b9",
        "master-crash-malleable": "3474ae2e35599b59f9abcbab5fad277640d632c04b6b11b8fc8f21b9ef23054b",
    },
    0: {
        "clean-rigid": "0627513b93a19b2ead24b344f3739cec8e714299aa8336f81117e7dc40c28967",
        "clean-malleable": "a5c17079eea6b45ac7294d9c6b98f575bfd6e66b76aa586fd69ac1edfd642e65",
        "node-failure-rigid": "0627513b93a19b2ead24b344f3739cec8e714299aa8336f81117e7dc40c28967",
        "node-failure-malleable": "a5c17079eea6b45ac7294d9c6b98f575bfd6e66b76aa586fd69ac1edfd642e65",
        "master-crash-rigid": "c7143f3c6b19e738a7c370c082cea5c386f71af187cf80ed2b03e23ce9e37ee2",
        "master-crash-malleable": "ff43c654ea75b1cc57820ed2e02f43de3db7cd1d1def9f00e0b67d2e59818f72",
    },
    1: {
        "clean-rigid": "bf86f684ce9f790c2f749e8b1e116a2067ca979d3426cb7dff6fed44c6af0529",
        "clean-malleable": "89954ba2828aca135e814a12b66bf8a00f018f489ef227bc5d27e7084c2ea6a6",
        "node-failure-rigid": "ea0d1b199452603b2bf452523e389114786d57dca34169442d015424af4c5ed1",
        "node-failure-malleable": "a1153fa994bfa2d852293639cb19d5f7793901a61b5df13b9786011c3ecbe575",
        "master-crash-rigid": "7a15c741c5748309d3ce1254d1eafcc4f52f679032026d9f522e8e847249e6d0",
        "master-crash-malleable": "6a7225bb1b24a960f3bcc879c5915af2fc8a309ff5f5cf8decd8b1c5b52798bc",
    },
    7: {
        "clean-rigid": "6a4b90e9ddde6ef7d4be0668f4daa9fba01f903d21ed18f4a03f6d55a2378eed",
        "clean-malleable": "ced35daba0c31915757f180f76e006f2f11e5b80c441c2c2af92b40fb166a65b",
        "node-failure-rigid": "6a4b90e9ddde6ef7d4be0668f4daa9fba01f903d21ed18f4a03f6d55a2378eed",
        "node-failure-malleable": "d9c9c6906cc3eea0f7ba50e7183d816eeba320a770db5eeec6e7f77b649ea9ca",
        "master-crash-rigid": "6975a4ede6b84c3c58fd3f3d3235ae87cd1d7b278ed7aad3144f4e02d49a2b53",
        "master-crash-malleable": "5cf103c11d10d81ca8e2189af8e865c35bc1e97d5011332d092ee20f494c45ce",
    },
    42: {
        "clean-rigid": "e7e3583f0ac9da42190944580d10e247743940be0221a0ea02778db20a4571a0",
        "clean-malleable": "cb5100ba765d61e05b9dc29b3780ca664e3a7236160af803dfb427081b21c924",
        "node-failure-rigid": "3018692c57fa7908879e9769905df48e1b5a322dc1e04e7a643d102d6898a593",
        "node-failure-malleable": "cda0bed41a411d348a77ab660b36f8a372c7ea33c136210ba0658f5439f6a33a",
        "master-crash-rigid": "5ea6c516b8d6dcbc369bbd2183ace0e59956093f30ede58da0447ea6401145e0",
        "master-crash-malleable": "914a6de5fe25843da6037b07337e07504bc23f338eda17e89f553e3f6265f1bd",
    },
}

#: the fast lane's seeds beyond the matrix's seed 3
SWEEP_SEEDS = (0, 1, 7, 42)

#: seed -> digest of the generator arm's six fingerprints, in
#: SCENARIOS x SHAPES order (``--slow``)
SEED_DIGESTS = (
    "693657aefd4a0a82468fb459851d9f0d2edade0d26a94d5d2bc36b9c853e71da",  # 0
    "92530ad1475518dfcf3377fc9290428aa2ce49999e827a908c85f644c55b0365",  # 1
    "e3ba5c3af87b50f55ce31898bcf614b85fdf328f068d7c8404ebc863d24ed910",  # 2
    "dffda0cdda4f7b65730a6d661498ce655cc7556d5da41b180aff0019d712c23f",  # 3
    "a72b4c36409d5d4c600f8e073a900b2ec645cc342a0bd37885a98372686070fb",  # 4
    "ab1fc8788ff0664f2a12a2a278f3d8bfceaf3ff1671910e280f7c6772f1d60aa",  # 5
    "ab800573b1a436213e42a3ca98e283b929c6da83ef7ec1e659fd4a3a3e6c8754",  # 6
    "dca0f3bab444d669b458ecd24d4cd8cd40e957cdb68d469e1ddda395feaf872b",  # 7
    "f6b8a010b8d0eb0adb9a551a7558c2f5c761135c33302f562537777c5f1b0468",  # 8
    "17d646f354f67adf4d0ae66efbf8c71a51e70501aee1172c65a0c8cac3082f22",  # 9
    "cf03c18a6fb1706f8bbd4d60204482cfaf3ea86912ead350850913d919d8c9bb",  # 10
    "90db1b00e46f1980455b6765ca55e3604c689c3425ebf4abe15651d0e69fdfe5",  # 11
    "f1cb44c45e82a0b72adb5d6d387126ed6d3cf1875c7e5d131aaf06966fda5eb3",  # 12
    "6b5b13bc77c2317b9ecf9241437053840c5acd88690c6a51a678283359dd8cd6",  # 13
    "cd87b17164fd1ea7db0b04485570b6f0a1475e770b13b0790bb2c04610dc756e",  # 14
    "f1d6fd44a89399e470f956145c22524558565a5b3947368b8b69df051a24340d",  # 15
    "b8a781f7c1a90b40750e0014842b08a5bea567134762a71bbdc1ff5b658a0ba2",  # 16
    "f4e0f182b5d730ffad04070029ca5bce62c5d8c8ad30b2eb46e7f6bfee5815af",  # 17
    "47d26d25b3a128457b1558b5cbff861088a4fca1a238a9d2bbebf8c07077e609",  # 18
    "42b0a0b73802049bde11342b976dd4ce31dc3a190ad4ffe5659b72cf79bdd066",  # 19
    "1c260dbd57467611e001b4c63e0cf3295bbded1e80ae5f27b997a8184f797f5c",  # 20
    "098dfe0f29691505b8581753d09d2e58d5f541267a0f1a55776e72a0e4722465",  # 21
    "d93fcc7d3480d09a7383a9265150ea345372b71447592ce8809c2ea9e0d059f4",  # 22
    "13331209a8d22e7c08b583c576696a53c37df8630734d9f7bcb9512259ee5674",  # 23
    "37c89a91aea716302ac59aa1e79bb835063a85f087605fc00724adeae0696936",  # 24
    "18d8459b9b1fd3595b3b83b66510e596c75a1bdcbcb4b478abfec144b649d1b7",  # 25
    "8aeffff9363787051be7344409742968f09a34e8f429bb1537255be5b2daaf43",  # 26
    "ae9e702dee6df62d3e25430116dd079d6f5ca0d20a51885a204f59c3f0ff7c9b",  # 27
    "fedffe67d6b6083eacae62e10c8c00b71c350c8825c3b951d6b58ee0652300e9",  # 28
    "dc7d0c78566b97c225d3b994b32d667bcc4cade10e48866e70801c9d399e2893",  # 29
    "becfa072db55e4244d8d1f8199962826deaadf768037d59a279d7ac84b9c38b2",  # 30
    "c6605b6228f2a5a2cabd3290bd61a432d649c78e5293598c3f79f77324ec1c0c",  # 31
    "ee987ec5b918885231b1e358c6a14ec7030176b351fab4c5d590adf44b56ec1a",  # 32
    "6f94decf717a2a60a462b463da50b824395b36ca653565911cdc305de34e55ed",  # 33
    "254dee838b4a7033aa833178080ecc5db0cd5ee74d3bb716fd316951e2d22611",  # 34
    "0e496588f9d8652d5a70a75be02d94eb3fbd6b77ecfaea5505effcba106a794f",  # 35
    "e0934b052b50a3b8be4d2a545bd9f91d2a65a0b1183c30c6fffa90f4eb2a2a33",  # 36
    "c855b2e6e301127b4cd6dec716b0b9ae66dfb6c8ab442595a61b5ed40c418c79",  # 37
    "2aac3b66ef0ce1769901ce823fe12c263f11cfd706734ff629ce164b5ef8daf1",  # 38
    "6853ce6b4079dc96feead8b47835f20e2a7923c369658f3ad908ce901fe91487",  # 39
    "e43f09c87cb8e162e47f8e5b3ae125e82385621da8e72c944111790b8945cb9b",  # 40
    "8a59894bb92e0f3e923d07afd5c7027251c52cfd2096376d191af1127bff983f",  # 41
    "4dad2a19acbb30fd938ae695c5054310ccce43876c06da96b29d5adf2e0a00d2",  # 42
    "36eea4f5ad8aff78db849a91db35d6d39962c51100a0a8bc076bc365c140ff38",  # 43
    "084b4f1a3de82c1c1e34133cbd7b018ed0e8488c4ef611f3cd9237c7eb216b7e",  # 44
    "bbb26b7b7a330a072afac2db3e24bfdca8de98e9cca1c794d909ad359cc9781e",  # 45
    "394453af3a4ba867f7b9b6681f106475dfab84f8ecc6c086852f66a376d359de",  # 46
    "b558c6a697e6415ae941ccfeac615b0851e8ce9905f1ab9ff07f7688ad1322e8",  # 47
    "eecf241f27b96f4fdb3fd7d5b85096502619bc8536f0f4a60d13d56f0016a2e5",  # 48
    "067b25c790271cd9288fef62480bc4a1e4d76e79b974195098b7920a2bddb762",  # 49
    "ffd4ca1df6f908720c8c43c79a9547458e5bc2bfa0a14828598246389b57cfd2",  # 50
    "e3d0c4cf332195d2c1d9b29f6a0fb48e842988efd6eef5965a32537b1da5f248",  # 51
    "c11c18d7c0764a85745385f8660f132a4faac026892816d7d92119b56bdac9af",  # 52
    "91aae461b4ed6a78321adaf269741d8f534deb6b1979d35e2d4a5ff1ce22e670",  # 53
    "3d384772eeb4233156810134a3c06cf84540c14879c42f9657214d53ed68398c",  # 54
    "c50a94ddc76cd57d0e9804773b6c04f2f4a03ec346bb33ead177368c12efb391",  # 55
    "4e41daca2c4ed51f19f4074a253b092a393f066da8ee585dc6ddd0f9eb1828f8",  # 56
    "3618410184182aeda50527d9d49d9e9814f696c3cfee6f112765bfec5a217350",  # 57
    "58daf353e9f3c062c33988ea68f04b09f40adefdd0423e0e6c0bdb367911440d",  # 58
    "154067bfd9d17889e0045fef345dace12418e7b96a5a067ade62773eefb77a68",  # 59
    "c293d3db34124e30e557449733722b8934de5a13a53f3d88bd09fe470b376eab",  # 60
    "7fb36de0c347dc80d9cd3950c400f4ffea0c106cdf2ce5e8a5bc68371debaa8a",  # 61
    "bd62fffcbb153950497a99b2735a0bc4a072d5984a0f3314301f02a7f83f7f55",  # 62
    "ca3fa421b15f77d31d1625a206d80ebc0ac1f4f4f7fa498befd710a20ce072ef",  # 63
)

#: (rm, seed) -> SHA-256 of the former relation's canonical payload
#: without EVENT_LOOP_KEYS and TRAFFIC_KEYS, recorded from code whose
#: payload without EVENT_LOOP_KEYS still traced back to the generator arm
RELATION_DIGESTS = {
    ("eslurm", 0): "ce470aecbaa24f7a6edeb8b72aa67f3a4e4e5a61a892365cb7f0ef39e8b9c490",
    ("slurm", 0): "501b2c1f327a5fd8a73caa68b621c3b3cb6224662c7def25e9e53f57e71c86e5",
    ("eslurm", 42): "f5ad792ac09979158209335da71803f1ab0cb1f5dddb75afecbf9bdac6ee2b90",
    ("slurm", 42): "86391d1789fe7ca77d491dbb4b97bd765eba35b8214ef1f94fdcf4ea2b0ad122",
}

#: telemetry describing the event loop itself (events dispatched, heap
#: occupancy), which the relation left out
EVENT_LOOP_KEYS = frozenset({"sim.events", "sim.heap.depth", "sim.heap.peak"})

#: telemetry counting tree walks rather than their outcome: messages,
#: bytes and arrivals per tree level, which count every walk, and the
#: count of heartbeat FP-Tree rebuilds (absent: heartbeats build none)
TRAFFIC_KEYS = frozenset(
    {
        "net.bytes",
        "net.messages",
        "net.tree.level1.arrival_s",
        "net.tree.level2.arrival_s",
        "rm.heartbeat.fptree_rebuilds",
    }
)

#: (rm, seed) -> ``sim.heap.peak`` of the relation's day
HEAP_PEAKS = {("eslurm", 0): 19, ("slurm", 0): 18, ("eslurm", 42): 29, ("slurm", 42): 28}

#: (rm, seed) -> SHA-256 of the day's TRAFFIC_KEYS telemetry
TRAFFIC_DIGESTS = {
    ("eslurm", 0): "cc369bf9690d887a645c36cddc44da72020f3ffa8807ccad71e986818fb580e5",
    ("slurm", 0): "2a53bade5418fb04ee767716103f7266c7c242de0e304fe88293a328edfb199e",
    ("eslurm", 42): "1e376f352279bd248ce880dbb267a586691268f5f41faea85455d8649d59547c",
    ("slurm", 42): "d589e0b662030a5af49d8c201c7e707b5e268aad3d5531e709b033d378a59c44",
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _fingerprint(seed: int, malleable: bool, scenario: str):
    """Every observable of one full day, as a comparable value."""
    sim = Simulator(seed=seed)
    model = (
        FailureModel(mtbf_node_hours=1200.0, burst_per_day=1.5)
        if scenario == "node-failure"
        else FailureModel.disabled()
    )
    cluster = ClusterSpec(
        n_nodes=N_NODES, n_satellites=2, failure_model=model, name="lc-eq"
    ).build(sim)
    if scenario == "node-failure":
        cluster.failures.start()
        cluster.monitor.start()
    kwargs = {"scheduler": BackfillScheduler(malleable=True)} if malleable else {}
    if scenario == "master-crash":
        kwargs["profile"] = _CRASHY
    rm = EslurmRM(sim, cluster, **kwargs)
    jobs = generate_trace(
        WorkloadConfig(max_nodes=N_NODES // 4, malleable_fraction=0.5 if malleable else 0.0),
        N_JOBS,
        seed=seed,
    )
    rm.run_trace(jobs, until=DAY)
    return {
        "jobs": [
            (j.job_id, j.state.name, j.submit_time, j.start_time, j.end_time, j.n_nodes)
            for j in rm.jobs
        ],
        "master_cpu_s": rm.master_acct.cpu_time_s,
        "crashes": rm.crash_count,
        "grows": rm.resize_grows,
        "shrinks": rm.resize_shrinks,
        "free": rm.pool.n_free,
        "now": sim.now,
    }


class TestScenarioMatrix:
    """Deterministic coverage of every (shape, scenario) combination."""

    @pytest.mark.parametrize("malleable", [False, True], ids=["rigid", "malleable"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_fsm_matches_generator(self, malleable, scenario):
        shape = "malleable" if malleable else "rigid"
        got = _digest(_fingerprint(3, malleable, scenario))
        assert got == CELL_DIGESTS[3][f"{scenario}-{shape}"]

    def test_crashy_profile_actually_crashes(self):
        # The master-crash column must exercise the reboot path, or the
        # matrix silently degenerates to a second clean column.
        assert _fingerprint(3, False, "master-crash")["crashes"] > 0

    def test_failure_scenario_actually_kills_nodes(self):
        # The injector must change what the day looks like, or the
        # node-failure column is a second clean column in disguise.
        assert _fingerprint(3, False, "node-failure") != _fingerprint(3, False, "clean")


class TestSeedSweep:
    """The same pins at more seeds."""

    def test_fsm_matches_generator_any_seed(self):
        diverged = [
            (seed, f"{scenario}-{shape}")
            for seed in SWEEP_SEEDS
            for scenario in SCENARIOS
            for malleable, shape in SHAPES
            if _digest(_fingerprint(seed, malleable, scenario))
            != CELL_DIGESTS[seed][f"{scenario}-{shape}"]
        ]
        assert diverged == []

    @pytest.mark.slow
    def test_every_seed_of_the_range_matches_generator(self):
        diverged = [
            seed
            for seed, want in enumerate(SEED_DIGESTS)
            if _digest(
                [
                    _fingerprint(seed, malleable, scenario)
                    for scenario in SCENARIOS
                    for malleable, _ in SHAPES
                ]
            )
            != want
        ]
        assert diverged == []


@functools.cache
def _relation_day(rm: str, seed: int):
    """The former relation's 256-node day with failures and telemetry on
    (the ESLURM arm malleable)."""
    return run_simulation(
        SimulationConfig(
            rm=rm,
            n_nodes=256,
            n_satellites=2,
            seed=seed,
            failures=True,
            n_jobs=60,
            horizon_s=DAY,
            malleable=rm == "eslurm",
            telemetry=TelemetryConfig(enabled=True),
        )
    )


def _telemetry(result, keep) -> dict:
    """The day's telemetry sections, restricted to the keys ``keep`` admits."""
    return {
        section: {k: v for k, v in metrics.items() if keep(k)}
        for section, metrics in result.telemetry.items()
    }


RELATION_ARMS = pytest.mark.parametrize(
    "rm", ["eslurm", "slurm"], ids=["eslurm-malleable", "slurm"]
)


class TestRelationPayload:
    """The former ``lifecycle-equivalence`` relation's payload per arm."""

    @pytest.mark.parametrize("seed", [0, 42])
    @RELATION_ARMS
    def test_payload_matches_generator(self, rm, seed):
        result = _relation_day(rm, seed)
        rep = result.report
        assert result.telemetry is not None
        payload = canonical_json(
            {
                "master": dict(rep.master),
                "schedule": dataclasses.asdict(rep.schedule),
                "n_broadcasts": rep.n_broadcasts,
                "occupation_mean_s": rep.occupation_mean_s,
                "telemetry": _telemetry(
                    result, lambda k: k not in EVENT_LOOP_KEYS and k not in TRAFFIC_KEYS
                ),
            }
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == RELATION_DIGESTS[(rm, seed)]

    @pytest.mark.parametrize("seed", [0, 42])
    @RELATION_ARMS
    def test_heap_peak_pinned(self, rm, seed):
        peak = _relation_day(rm, seed).telemetry["gauges"]["sim.heap.peak"]["last"]
        assert peak == HEAP_PEAKS[(rm, seed)]

    @pytest.mark.parametrize("seed", [0, 42])
    @RELATION_ARMS
    def test_traffic_pinned(self, rm, seed):
        traffic = canonical_json(_telemetry(_relation_day(rm, seed), TRAFFIC_KEYS.__contains__))
        assert hashlib.sha256(traffic.encode()).hexdigest() == TRAFFIC_DIGESTS[(rm, seed)]
