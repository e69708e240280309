"""Content-addressed analysis cache: keys, tiers, compile equivalence."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dataflow import DataflowGraph
from repro.mapping import EdgeKind, McmResult, Partition
from repro.service import AnalysisCache, analysis_key, graph_fingerprint
from repro.service.cache import _decode_row, _encode_row, structure_key
from repro.spi import SpiConfig, SpiSystem, lower

REPO_ROOT = Path(__file__).resolve().parents[2]


def _toy_graph(name="toy", cycles_b=20):
    graph = DataflowGraph(name)
    a = graph.actor("A", cycles=10)
    b = graph.actor("B", cycles=cycles_b)
    out = a.add_output("out", rate=2)
    inp = b.add_input("inp", rate=1)
    graph.connect(out, inp)
    return graph


def _toy_partition(graph):
    return Partition(graph, 2, {"A": 0, "B": 1})


class TestFingerprint:
    def test_identical_structure_identical_fingerprint(self):
        assert graph_fingerprint(_toy_graph()) == graph_fingerprint(
            _toy_graph()
        )

    def test_name_does_not_affect_fingerprint(self):
        """conform_seed17 and conform_seed42 with the same structure
        must collide — the cache is content-addressed, not name-keyed."""
        assert graph_fingerprint(_toy_graph("x")) == graph_fingerprint(
            _toy_graph("y")
        )

    def test_structure_changes_the_fingerprint(self):
        assert graph_fingerprint(_toy_graph()) != graph_fingerprint(
            _toy_graph(cycles_b=21)
        )

    def test_callable_cycles_disable_fingerprinting(self):
        """A data-dependent cycle model has no canonical content; the
        cache must silently bypass instead of aliasing graphs."""
        graph = _toy_graph()
        graph.get_actor("B").cycles = lambda firing, inputs: 20
        assert graph_fingerprint(graph) is None
        assert analysis_key(graph, _toy_partition(graph), SpiConfig()) is None


class TestKeys:
    def test_analysis_key_covers_analysis_relevant_config(self):
        graph = _toy_graph()
        partition = _toy_partition(graph)
        base = analysis_key(graph, partition, SpiConfig())
        assert base is not None
        # resynchronize changes surviving ACK edges -> must change the key
        assert base != analysis_key(
            graph, partition, SpiConfig(resynchronize=False)
        )
        assert base != analysis_key(
            graph, partition, SpiConfig(protocol_policy="always_ubs")
        )

    def test_analysis_key_ignores_execution_only_config(self):
        graph = _toy_graph()
        partition = _toy_partition(graph)
        assert analysis_key(graph, partition, SpiConfig()) == analysis_key(
            graph, partition, SpiConfig(transport="shared_bus")
        )

    def test_structure_key_shared_across_protocol_configs(self):
        """The repetitions vector depends only on graph structure, so
        the oracle run matrix (spi / spi-noresync / spi-ubs) shares it."""
        graph = _toy_graph()
        partition = _toy_partition(graph)
        assert structure_key(graph, partition, SpiConfig()) == structure_key(
            graph,
            partition,
            SpiConfig(resynchronize=False, protocol_policy="always_ubs"),
        )

    def test_keys_pinned_to_their_published_digests(self):
        """Disk caches written by earlier versions must keep hitting:
        both keys of one fixed graph are pinned byte for byte, and the
        lowering's once-per-lowering ``cache_keys`` derives exactly the
        same pair."""
        graph = _toy_graph()
        partition = _toy_partition(graph)
        pinned = (
            "604e946cee0bbe3ea27e2b0c6ed33ba058221a2a91d39d63354395ad106e8562",
            "7f7107e8fd8d4549f8a4d22a0a650920bd6f757a221c8bc4c8fcdaaae3d43fb6",
        )
        assert analysis_key(graph, partition, SpiConfig()) == pinned[0]
        assert structure_key(graph, partition, SpiConfig()) == pinned[1]
        assert lower(graph, partition).cache_keys(partition, SpiConfig()) == (
            pinned
        )

    def test_keys_for_fingerprints_the_graph_once(self, monkeypatch):
        import repro.service.cache as cache_module

        calls = []
        original = cache_module.graph_fingerprint

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(cache_module, "graph_fingerprint", counting)
        graph = _toy_graph()
        SpiSystem.compile(
            graph, _toy_partition(graph), SpiConfig(), cache=AnalysisCache()
        )
        assert calls == [graph]

    def test_key_stable_across_process_boundaries(self):
        """Shards compute keys independently; the same graph must hash
        identically in a fresh interpreter."""
        script = (
            "from repro.dataflow import DataflowGraph\n"
            "from repro.mapping import Partition\n"
            "from repro.service import analysis_key\n"
            "from repro.spi import SpiConfig\n"
            "g = DataflowGraph('toy')\n"
            "a = g.actor('A', cycles=10)\n"
            "b = g.actor('B', cycles=20)\n"
            "g.connect(a.add_output('out', rate=2), "
            "b.add_input('inp', rate=1))\n"
            "p = Partition(g, 2, {'A': 0, 'B': 1})\n"
            "print(analysis_key(g, p, SpiConfig()))\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
            cwd=REPO_ROOT,
        )
        assert remote.returncode == 0, remote.stderr
        graph = _toy_graph()
        local = analysis_key(graph, _toy_partition(graph), SpiConfig())
        assert remote.stdout.strip() == local


class TestCompileEquivalence:
    def test_cached_compile_matches_uncached(self):
        """The tentpole soundness property: compiling through a warm
        cache must produce the same system as compiling cold."""
        cache = AnalysisCache()

        def compile_once(with_cache):
            graph = _toy_graph()
            return SpiSystem.compile(
                graph,
                _toy_partition(graph),
                SpiConfig(),
                cache=cache if with_cache else None,
            )

        cold = compile_once(False)
        miss = compile_once(True)  # populates
        hit = compile_once(True)  # replays
        assert cache.total_hits > 0

        reference = cold.run(iterations=4, metrics=True)
        for system in (miss, hit):
            for name, plan in system.channel_plans.items():
                assert plan.protocol == cold.channel_plans[name].protocol
                assert (
                    plan.capacity_messages
                    == cold.channel_plans[name].capacity_messages
                )
                assert (
                    plan.acks_enabled == cold.channel_plans[name].acks_enabled
                )
            result = system.run(iterations=4, metrics=True)
            assert result.cycles == reference.cycles
            assert (
                result.metrics["wire_byte_split"]
                == reference.metrics["wire_byte_split"]
            )

    def test_repetitions_and_mcm_cached(self):
        cache = AnalysisCache()
        graph = _toy_graph()
        system = SpiSystem.compile(
            graph, _toy_partition(graph), SpiConfig(), cache=cache
        )
        uncached_graph = _toy_graph()
        uncached = SpiSystem.compile(
            uncached_graph, _toy_partition(uncached_graph), SpiConfig()
        )
        assert system.task_repetitions() == uncached.task_repetitions()
        assert (
            system.estimated_iteration_period_cycles()
            == uncached.estimated_iteration_period_cycles()
        )
        before = cache.total_hits
        graph2 = _toy_graph()
        system2 = SpiSystem.compile(
            graph2, _toy_partition(graph2), SpiConfig(), cache=cache
        )
        system2.task_repetitions()
        system2.estimated_iteration_period_cycles()
        assert cache.total_hits > before


class TestDiskTier:
    def test_round_trip_between_instances(self, tmp_path):
        graph = _toy_graph()
        partition = _toy_partition(graph)

        writer = AnalysisCache(path=tmp_path)
        key = writer.key_for(graph, partition, SpiConfig())
        assert writer.repetitions(key, lambda: {"A": 1, "B": 2}) == {
            "A": 1,
            "B": 2,
        }
        assert writer.misses["repetitions"] == 1

        reader = AnalysisCache(path=tmp_path)
        computed = []
        value = reader.repetitions(
            key, lambda: computed.append(True) or {}
        )
        assert value == {"A": 1, "B": 2}
        assert computed == []  # served from disk, compute never ran
        assert reader.hits["repetitions"] == 1

    def test_disk_files_are_valid_json(self, tmp_path):
        cache = AnalysisCache(path=tmp_path)
        graph = _toy_graph()
        key = cache.key_for(graph, _toy_partition(graph), SpiConfig())
        cache.mcm(
            key,
            lambda: McmResult(
                value=12.5,
                cycle=("A", "B"),
                total_cycles=25,
                total_delay=2,
            ),
        )
        files = list(Path(tmp_path).rglob("*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text()) == {
            "value": 12.5,
            "cycle": ["A", "B"],
            "total_cycles": 25,
            "total_delay": 2,
        }

    def test_mcm_entry_with_algorithm_field_still_loads(self, tmp_path):
        cache = AnalysisCache(path=tmp_path)
        graph = _toy_graph()
        key = cache.key_for(graph, _toy_partition(graph), SpiConfig())
        # Entries written while the solver was selectable name it.
        target = tmp_path / key[:2] / f"{key}.mcm.json"
        target.parent.mkdir(parents=True)
        target.write_text(
            json.dumps(
                {
                    "value": 12.5,
                    "cycle": ["A", "B"],
                    "total_cycles": 25,
                    "total_delay": 2,
                    "algorithm": "howard",
                }
            )
        )
        result = cache.mcm(key, lambda: pytest.fail("must hit the cache"))
        assert result == McmResult(
            value=12.5, cycle=("A", "B"), total_cycles=25, total_delay=2
        )

    def test_witnessless_legacy_mcm_entry_still_loads(self, tmp_path):
        cache = AnalysisCache(path=tmp_path)
        graph = _toy_graph()
        key = cache.key_for(graph, _toy_partition(graph), SpiConfig())
        # A pre-witness cache entry carries only the bound.
        target = tmp_path / key[:2] / f"{key}.mcm.json"
        target.parent.mkdir(parents=True)
        target.write_text(json.dumps({"value": 4.0}))
        result = cache.mcm(key, lambda: pytest.fail("must hit the cache"))
        assert result.value == 4.0
        assert result.cycle == ()

    def test_edge_entry_with_payload_bytes_still_decodes(self):
        # Entries written while timed edges carried a payload size.
        names = ["A", "B"]
        row = (0, 1, 1, EdgeKind.IPC, "A.o->B.i")
        assert _encode_row(names, row) == {
            "src": "A", "snk": "B", "delay": 1, "kind": EdgeKind.IPC,
            "origin_edge": "A.o->B.i",
        }
        raw = {**_encode_row(names, row), "payload_bytes": 4}
        index = {"A": 0, "B": 1}
        assert _decode_row(index, raw) == row
        assert _decode_row(index, _encode_row(names, row)) == row

    def test_none_key_bypasses_cache(self):
        cache = AnalysisCache()
        assert cache.repetitions(None, lambda: {"A": 3}) == {"A": 3}
        assert cache.repetitions(None, lambda: {"A": 3}) == {"A": 3}
        assert cache.total_hits == 0
        assert cache.total_misses == 0
