"""Snapshot of what every compile decides and every run wires.

The goldens pin what the compiled systems *compute* (makespans, message
counts, trace rows); this test pins what the compiles *decide* and how
the runs are *wired*, for every configuration of the conformance run
matrix plus the MPI baseline, all compiled from one shared lowering:

* the post-ack synchronization graph's edge rows, in order;
* the resynchronization outcome: removed and added edges, sync cost and
  MCM before and after;
* the MCM value and its critical-cycle witness;
* every channel plan;
* the analysis and structure keys, and the JSON the analysis cache
  stores on disk;
* every run's firing programs: each op's kind, name and static cycles,
  the edges its guard, pops and pushes name, its remote and local
  branches in order, and its resynchronization layers.

A rewrite of the compile or of the run wiring must leave every digest
unchanged.  The corpus is generator seeds 1-40 of the default shape,
ten seeds of ``collective_prob=0.7``, a dynamic-rate (VTS) pair, LPC on
three PEs and the particle filter on two.
"""

import hashlib
import json

import pytest

from repro.apps.lpc import build_parallel_error_graph, frame_stream
from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.conformance import build_case, generate_spec
from repro.conformance.generator import GraphShape
from repro.conformance.oracles import _spi_run_matrix
from repro.dataflow import DataflowGraph, DynamicRate
from repro.mapping.partition import Partition
from repro.mpi.baseline import MpiSystem
from repro.platform.simulator import Simulator
from repro.service import AnalysisCache
from repro.spi import SpiSystem, lower

MATRIX = _spi_run_matrix(quick=False)
ITERATIONS = 4


def _name(obj):
    """The edge name behind a fifo or a channel (None stays None)."""
    return None if obj is None else obj.edge.name


def _op(op) -> list:
    return [
        op.kind,
        op.name,
        op.cycles,
        op.cost is not None,
        [[_name(fifo), rate] for fifo, rate in op.guard],
        [
            [
                port,
                _name(fifo),
                rate,
                None
                if members is None
                else [[_name(member), count] for member, count in members],
                None if connection is None else connection.name,
            ]
            for port, fifo, rate, members, connection in op.pops
        ],
        [[port, _name(fifo)] for port, fifo in op.pushes],
        _name(op.fifo),
        op.rate,
        len(op.flows),
        [_name(channel) for channel in op.credited],
        [[edge.name, _name(channel)] for edge, channel in op.remote],
        [_name(fifo) for fifo in op.local],
        None if op.connection is None else op.connection.name,
        op.group,
        op.rendezvous,
        _name(op.channel),
        None if op.counts is None else list(op.counts),
        [
            [
                [pool.name for pool in layer.guards],
                [
                    [pool.name, link.src_pe, link.dst_pe, nbytes]
                    for pool, link, nbytes in layer.notify
                ],
                layer.phase,
                layer.period,
            ]
            for layer in op.sync or ()
        ],
    ]


@pytest.fixture
def programs(monkeypatch):
    """Every run's firing programs, captured as the kernel starts."""
    captured = []
    run = Simulator.run

    def capturing(self, *args, **kwargs):
        captured.append(
            [
                [s.pe.index, s.iterations, [_op(op) for op in s.program]]
                for s in self.sequencers
            ]
        )
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", capturing)
    return captured


def _edge(edge) -> list:
    return [edge.src, edge.snk, edge.delay, edge.kind, edge.origin_edge]


def _compile_snapshot(system) -> dict:
    resync = system.resync_result
    mcm = system.mcm_result()
    return {
        "sync_edges": [_edge(e) for e in system.sync_graph.edges],
        "resync": None
        if resync is None
        else [
            [_edge(e) for e in resync.removed],
            [_edge(e) for e in resync.added],
            resync.cost_before,
            resync.cost_after,
            resync.mcm_before,
            resync.mcm_after,
        ],
        "mcm": [
            mcm.value, list(mcm.cycle), mcm.total_cycles, mcm.total_delay,
        ],
        "plans": [
            [
                name,
                plan.ipc_edge.name,
                plan.send_actor,
                plan.recv_actor,
                plan.src_pe,
                plan.dst_pe,
                plan.dynamic,
                plan.protocol,
                plan.capacity_messages,
                plan.message_payload_bytes,
                plan.acks_enabled,
            ]
            for name, plan in system.channel_plans.items()
        ],
        "keys": [system._analysis_key, system._structure_key],
        "batch": system.batch,
    }


def snapshot(built, programs, cache_dir) -> dict:
    """Compile and run ``built`` under every configuration."""
    graph, partition = built.graph, built.partition
    tap = getattr(built, "tap", None)
    cache = AnalysisCache(cache_dir)
    lowering = lower(graph, partition)
    runs = {}
    for label, config in MATRIX:
        system = SpiSystem.compile(
            graph, partition, config, cache=cache, lowering=lowering
        )
        runs[label] = _compile_snapshot(system)
        if tap is not None:
            tap.begin(label)
        result = system.run(iterations=ITERATIONS, check_lost_wakeups=True)
        runs[label]["cycles"] = result.cycles
        runs[label]["programs"] = programs.pop()
    mpi = MpiSystem.compile(graph, partition, lowering=lowering)
    if tap is not None:
        tap.begin("mpi")
    result = mpi.run(iterations=ITERATIONS, check_lost_wakeups=True)
    runs["mpi"] = {
        "modes": sorted(mpi.channel_modes.items()),
        "cycles": result.cycles,
        "programs": programs.pop(),
    }
    assert not programs
    stored = sorted(
        (str(path.relative_to(cache_dir)), path.read_text())
        for path in cache_dir.rglob("*.json")
    )
    return {"runs": runs, "cache": stored}


def _digest(built, programs, cache_dir) -> str:
    text = json.dumps(snapshot(built, programs, cache_dir), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _Built:
    def __init__(self, graph, partition):
        self.graph, self.partition = graph, partition


def _vts():
    """A producer/consumer pair with run-time varying rates on two PEs."""
    graph = DataflowGraph("vts_pair")

    def produce(k, inputs):
        return {"o": [k] * ((3 * k) % 10 + 1)}

    a = graph.actor("A", kernel=produce, cycles=6)
    b = graph.actor("B", kernel=lambda k, inputs: {}, cycles=6)
    a.add_output("o", rate=DynamicRate(10), token_bytes=2)
    b.add_input("i", rate=DynamicRate(8), token_bytes=2)
    graph.connect((a, "o"), (b, "i"))
    return _Built(graph, Partition(graph, 2, {"A": 0, "B": 1}))


def _lpc():
    frames = frame_stream(total_samples=2 * 256, frame_size=256)
    return build_parallel_error_graph(frames, order=8, n_units=2)


def _pf():
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=4)
    return build_particle_filter_graph(
        model, observations, n_particles=40, n_pes=2
    )


COLLECTIVE = GraphShape(collective_prob=0.7)
COLLECTIVE_SEEDS = (1, 2, 3, 5, 12, 16, 21, 25, 41, 57)

CASES = {
    **{
        f"seed{seed}": (lambda seed=seed: build_case(generate_spec(seed)))
        for seed in range(1, 41)
    },
    **{
        f"collective_seed{seed}": (
            lambda seed=seed: build_case(generate_spec(seed, COLLECTIVE))
        )
        for seed in COLLECTIVE_SEEDS
    },
    "vts_pair": _vts,
    "lpc_3pe": _lpc,
    "pf_2pe": _pf,
}

DIGESTS = {
    "collective_seed1": (
        "f129da6c1f2884210021535c6f25b590bf6b1beef10bddb53f56b0f5b1cc7d11"
    ),
    "collective_seed12": (
        "1aad4b5abc6968ba0de3a30fc09baf5c6a8235559fc1fb05e328e43a4ed342e5"
    ),
    "collective_seed16": (
        "3627128f0cfb4d95760f96001007a1192181ef8f9074e4defa21a1ec1f51f559"
    ),
    "collective_seed2": (
        "bf6682513829867e67320c047a1e9245484c600ecc46f7722737f8c5e9807cc3"
    ),
    "collective_seed21": (
        "d17796a458237fceea937ac833f9dafaed27fc12f888e12ce8b9550eb9b389fb"
    ),
    "collective_seed25": (
        "bc3a63785d01c5a266bf6cbc9c30b915d063ef9aec0e6bba3de25c9147126491"
    ),
    "collective_seed3": (
        "26fa9e1c74c54a57d3c6af2fc9cf954f7846cfe2b435d19edc4ec49a5240dbfb"
    ),
    "collective_seed41": (
        "2a0cc7ab190c08b6a55145a24c77957bd58633b4d3a97531b54d5058bc24bbe6"
    ),
    "collective_seed5": (
        "7d8144128e5ada026e73d1c32d83494dc8256d36038109e6e71270e224007cef"
    ),
    "collective_seed57": (
        "e77c9f664177dc59659adcab274e1e98e2b435426e93060ce1a827b1dd38afee"
    ),
    "lpc_3pe": (
        "61faed1369eada543f9d1b21f376666e842d74fb839b3103f4424c5fa1e6853f"
    ),
    "pf_2pe": (
        "e2bf759405cd05bce87c2b603cb098544cc29b6ac3d80a6d5de2d5df6731c3ba"
    ),
    "seed1": (
        "d43d47b73bbf0ffba5ee93e1d6bcebd1875e88b75ae27f7877731dafcc96d316"
    ),
    "seed10": (
        "16e5ff32a3a73fd860af9f5b5ee74ecd5540c995298e04ff02ff3f4ec27bb7e6"
    ),
    "seed11": (
        "61d4a56fe565ac2325b60056a0e880a6f565290ce792cc7b98b578dcc5ac2215"
    ),
    "seed12": (
        "0560192d71065116751cbc7f922f0bc382ef27716eb84442a3f4d14204983e14"
    ),
    "seed13": (
        "91a29481faf4d44ef7b2075ce09ec320e85c0bbc9997e0499e7f3c5516bd93b4"
    ),
    "seed14": (
        "53120f29329494a1eaca2a649a491a34c9d4248f31596018627d2b5a1f845df5"
    ),
    "seed15": (
        "c4a7b7ba2caa51b7e47e5ce8d215ecfe9ba57c2c99dd34e22536880ba8619aa9"
    ),
    "seed16": (
        "413483772fe68b76ca314ed2a56e7bfcfe07d223544622fe0a8a83ca82987686"
    ),
    "seed17": (
        "fc694d058a781e747c1386e406eeaf202fd14c2324e131d1a9436f89d8b6e0d6"
    ),
    "seed18": (
        "ed69c5d9bca6317640a49dbbd1813352a6a3cd7367f0a0668881375b815e9c65"
    ),
    "seed19": (
        "8cea08b6884ab64abd66c616f4f08330b9d598846870b7a592e8487a5768582a"
    ),
    "seed2": (
        "bf6682513829867e67320c047a1e9245484c600ecc46f7722737f8c5e9807cc3"
    ),
    "seed20": (
        "56559d50ec0e3c2bfe60d429ec4c094acd8b97c884d36de5046467302fe17c7c"
    ),
    "seed21": (
        "df0272a74fe2960ccf7aeef1b8c72c279547b2f7dd9e6e3ac1d5ba03620bc494"
    ),
    "seed22": (
        "188acd2772e21ecdb4b4b14be39677bb02e21a5943cff3a008a1bfb7b2a56b65"
    ),
    "seed23": (
        "0b9290ad6eb66a4e0d398492370d8db563c8e232ceca33df8a0d77f74aedf29f"
    ),
    "seed24": (
        "aa2fcfdfd89aa572b7bcab4263e8d24abb1e9bdddd51eeb72ffa2ebb8b9bd556"
    ),
    "seed25": (
        "53495d4d2720442174f8966f8532a5c42351cc6d27763e970dea5f872aa54633"
    ),
    "seed26": (
        "ddd78010d3aaee40329337b52b1917e10b8bd89c4368d946aefb82f58e0d938c"
    ),
    "seed27": (
        "7bcd5a4d51ef7a115786b770e5d8a727255f0b77464b652ffb75e1e26355ea31"
    ),
    "seed28": (
        "adb2ebae94d283e726c2e221ce9c06061dd875dc90a305e4367c340471b83e2d"
    ),
    "seed29": (
        "741f17dfce197a9dbe93f1ebd4780f87ea082ca3bac5b38cebf04bd5d8604cf2"
    ),
    "seed3": (
        "94f1cf7829d8167720b1721e84dfd78d4d3483d0fea3e6106e3ef7bf761d9755"
    ),
    "seed30": (
        "d79a46e8482911bcb50dd47f1f4bad2a883e9c311d4462a44ca5be79c075eba7"
    ),
    "seed31": (
        "326b735656c3e8a29504405f1348c7e423c91da323a9497aeec9b1b6d98887b0"
    ),
    "seed32": (
        "ce7f217f97a0c85c2fe33f6fc9630fac248264d34c65c954fcbefb9f1932540a"
    ),
    "seed33": (
        "29c7fffd3a70f9072719ac3740a7e1e7f24d21ea279acf3796d7ac922e63c17c"
    ),
    "seed34": (
        "8e9313c2b0ec75a64a022ed9105fd82ea3b10bc9351f7b0675d7935e4f9db872"
    ),
    "seed35": (
        "fb5975ffa3587b26bc5c4ea71c657de9365a6bba7097e7036e826bf79a1a1055"
    ),
    "seed36": (
        "f1a0a22ee1e930d2373740f8fb867364728146fc27932e6fa81463559c60f48f"
    ),
    "seed37": (
        "8746c50a8a7e4a013cce05fc4ba0422c19e07a3dc3dd6f97a7e57920bca7a522"
    ),
    "seed38": (
        "86e51bb5f17bdb95fd9b5ad68e0c26afd9831f85e06d1138a21622e442f7b1d2"
    ),
    "seed39": (
        "a743d3915264b5deb1994513a846642750002181213f645e7e9f0dad86b0089c"
    ),
    "seed4": (
        "a2310c3b2109d85b8c30e7828b6bd93159f119058752d1f3e647809258ab8099"
    ),
    "seed40": (
        "80e960efe248018150cc18c414bfa639cee979fd27c11e37baed0e98f9006d23"
    ),
    "seed5": (
        "83bed3e42f24fe0794b9f4236cf7e14b0a1af05a67391a77bd0e4f063d45c554"
    ),
    "seed6": (
        "54d85e30dee210e2292565ae7d5ca499b148ea8f892e941b80bcf8df6c9ab44c"
    ),
    "seed7": (
        "d70a01fe9e8549c694e13b6e4c18c53ba0139e25be16791ab907e2967ab7c2fe"
    ),
    "seed8": (
        "6004186d7e765e7cf12f9d74e64d118677c5f28ee51ec182fb0aecaa213b0c18"
    ),
    "seed9": (
        "1fc60113b1fe1ad02f4b8d7f2e89e65d802a333e847763169da69f6aaf685c6a"
    ),
    "vts_pair": (
        "984083eb3cbe80749da5e042ed0bde03f65b0d298d5c913e8318055a3471c42e"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_compile_digest(name, programs, tmp_path):
    assert _digest(CASES[name](), programs, tmp_path / "cache") == DIGESTS[name]
