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
        "b356d339e69e5d2f27623abb58a1676d422a75e3fa75d0a681db02b6943371e6"
    ),
    "collective_seed12": (
        "8879d131be25ed373a50d5dd6f9838fee7835aa7ed08e92aa240a340ed132373"
    ),
    "collective_seed16": (
        "efe7c4d7052f199c804321ba77ef7c06d45689f41b07db9a3cd3c3a3fef63b33"
    ),
    "collective_seed2": (
        "cd62bffe7e7b18108cc61feaf3e50125269f869bd29b90a80aef822aae8f011e"
    ),
    "collective_seed21": (
        "1090a1f210eecf551ea6a8255459111aca230dd69bc5725ee7730e1389e26873"
    ),
    "collective_seed25": (
        "acd2839deb1f7d6f6f8643d3249a91a6476a50cbc49184f033631dbdbc032259"
    ),
    "collective_seed3": (
        "59fdbbc7ec8ac6df1e01176296914f0441b684a9226f9528638469cf550d423e"
    ),
    "collective_seed41": (
        "6007c37bac5d58390b6d1b035bc3bf85b6ae149416a63a806ab4497d35d33b61"
    ),
    "collective_seed5": (
        "7ac4f1c1c7ae6058e785de42234dbdc465578b9ffeeb550275249b739f622387"
    ),
    "collective_seed57": (
        "45de47f6d6b5799c3457206bf71ed9f65ed03411e4e6b5d4d8b2ec9305187454"
    ),
    "lpc_3pe": (
        "1ba060076cb6f0d09d09dbb5b884805da3cd2c23cbf109d19140de6f434e8946"
    ),
    "pf_2pe": (
        "d1e6677223df0515c30beab2fa8a71d14edc24049420e0fd0aa7577981768c8c"
    ),
    "seed1": (
        "92e43731b223537aef6e91d60d715b028702a2b0b83e727a4ae84e2a75bddf74"
    ),
    "seed10": (
        "9831da738762ab9230b1a93769cae6c38fb2464836d104b51698c7e3e856056b"
    ),
    "seed11": (
        "1dba167c1bc3a31a08416a28b3fa6d86617f3db8b2d4b4c5f8c42bd2ce465ca0"
    ),
    "seed12": (
        "8f3b4458057f7fe04822f3cd4d8a2a2d6fbcf47abdbc8bd1ec84b823ee0af6dd"
    ),
    "seed13": (
        "d03464613a5f48c4ab18eb352cc550f7705f84dfc59c71d49c24fd93d36bae4c"
    ),
    "seed14": (
        "e18562228009b3c0eafccd97428ddccb675118575f6d62a437870988d800f2d0"
    ),
    "seed15": (
        "36f65d4bafb36f5dab5aa5667ec47799b6339bdfa3e9c74357f2250dede2e6ad"
    ),
    "seed16": (
        "f8e46d854465f8542a253ae23724578868dbf2046c09a2a09d666f1dbd2f4ebc"
    ),
    "seed17": (
        "8cceca813cbaa62c94f5f887bca5f1a52cf88d7969cd359f0c86d70b6f0ba9ba"
    ),
    "seed18": (
        "1f20306ad2db5ee08aa135f3241f0599a01bfbe554b650afdd7a74deca958390"
    ),
    "seed19": (
        "2f4b44ec8d4da0e8b7ecd84d01ce9347081117da873a083f5dc3e1c82108b55d"
    ),
    "seed2": (
        "cd62bffe7e7b18108cc61feaf3e50125269f869bd29b90a80aef822aae8f011e"
    ),
    "seed20": (
        "3f222fbcafe90a03e44df5bb0d9414110c85d4b4fedb36aa8a275d0ad190529f"
    ),
    "seed21": (
        "90307ab070aabfa8851bd5d662eca18c76ccf6d7294dfc94450fc842715818f2"
    ),
    "seed22": (
        "7dad11d3b3f2af4007735d9f4c6a97ebecf0e5a1f72eb80a522948acd69e0c6f"
    ),
    "seed23": (
        "c39dd453968ef78d29a07702eb7e122969b36c2c0fc7afa3e537d7bca211b4ac"
    ),
    "seed24": (
        "7f9273814cab8c5054ba08bbf4b13801b38f9618364f893d9433f1144c2083aa"
    ),
    "seed25": (
        "f4e0686810d5c4fb88ac12f215d3da63411c05ce1e894b849f6fa6a22bbadff3"
    ),
    "seed26": (
        "a6d33b2e72ca546a825876d4800acb300df72861a2ce6492719f5f8c2fd581c1"
    ),
    "seed27": (
        "c9a939df8a2406275529105ace6518c9a63940f9d600c74edd9fa8d10cce188f"
    ),
    "seed28": (
        "5bc7a03bbeb15bfeba49a7d2adfbcdc390a162f830ee0c8e0d9f247a807a3772"
    ),
    "seed29": (
        "46dd9e7fefeb5cb36e323b7f5dd8b1257dffd9ffdb06edd8a93176ad11c39b19"
    ),
    "seed3": (
        "5834273dd604ec93796a5497f8386fc32b21f3787d0fc5c78433ae3187085838"
    ),
    "seed30": (
        "56e96f9dda8bae3f5426084af4dbb3417c85087ddad7ec48bb3ff41d11de769a"
    ),
    "seed31": (
        "39b4f3bd7a7d0d7377cbff62a7805fa64bab22d5835916cde6a34561a3bb394d"
    ),
    "seed32": (
        "140ad34d411f0e36e5588b032c3557adffc1e3141ef95e5309776e9cb16ca14c"
    ),
    "seed33": (
        "fd4f5b13e30042939a0d13d45692001caccb0bdd7592ce5874e9fd9f109a53be"
    ),
    "seed34": (
        "fb322bb93d35d315429d464c590bdb007c022dc63899002ca68dfcafd8d3fc9c"
    ),
    "seed35": (
        "850d7b0587edd781f9322a9fc7d24b3bf60ffc6d663cddafc34b955faa1c5668"
    ),
    "seed36": (
        "44f372778966c76300447c34d5d5b837e56888989a1032ffc7e9bdd7ea145555"
    ),
    "seed37": (
        "7d1d00b2aa64a4d96251e448540b08ded9d02871e07f72c9d77bc0fb247fe4ef"
    ),
    "seed38": (
        "5ed534824df365712a4174ba576b2e1148cf73cb8a1cffde8dac4c2b21e7a2b0"
    ),
    "seed39": (
        "69f66381c9ce8b1f3a8b8fa321fb4a98c646bb2b88fbafc734cc722bb489cd6f"
    ),
    "seed4": (
        "6df4b918116935047de8635e6ab804c869b07367c737fef3e9fc34a80ffd240f"
    ),
    "seed40": (
        "ca966f80d79cb0e9a6bedf4927839b2733c495bd6f414bbe1c2cb11674a6743a"
    ),
    "seed5": (
        "a4f704265a9c6cd3804a582a084da634beaefb6f7173e2d1b33f15094641ace0"
    ),
    "seed6": (
        "6aa5d936fd801deee3509107f0b8d5be04f5ce79f17788a5ad0effc043019b56"
    ),
    "seed7": (
        "ccc0e6d5f4dcf0f0f2da745e1b0a63dda7fd141efdaa208414117cf49891a669"
    ),
    "seed8": (
        "35cc3d1f219823570911914644de1f52ed274ef9ecf42639ed2f2204f703f322"
    ),
    "seed9": (
        "d17edc7c6a369c604c434285df6dd736f0c1decbba852efdea2bd5546a1f5a2f"
    ),
    "vts_pair": (
        "be11fb157b12a7e65474524762b916960c1b20dba04028b8d4247c8e41af9263"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_compile_digest(name, programs, tmp_path):
    assert _digest(CASES[name](), programs, tmp_path / "cache") == DIGESTS[name]
