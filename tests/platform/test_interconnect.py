"""Unit tests for the link/interconnect model."""

import pytest

from repro.platform import Interconnect, LinkSpec


class TestLinkSpec:
    def test_transfer_cycles(self):
        spec = LinkSpec(setup_cycles=4, word_bytes=4, cycles_per_word=1)
        assert spec.transfer_cycles(0) == 4
        assert spec.transfer_cycles(1) == 5
        assert spec.transfer_cycles(4) == 5
        assert spec.transfer_cycles(5) == 6
        assert spec.transfer_cycles(16) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(setup_cycles=-1)
        with pytest.raises(ValueError):
            LinkSpec(word_bytes=0)
        with pytest.raises(ValueError):
            LinkSpec(cycles_per_word=-1)
        with pytest.raises(ValueError):
            LinkSpec().transfer_cycles(-1)

    def test_negative_setup_cycles_pinned(self):
        # Regression pin: a dataclass field default change or a
        # refactor of __post_init__ must not drop this validation —
        # a negative setup time silently *subtracts* cycles from every
        # transfer, which the cost model would never flag on its own.
        with pytest.raises(ValueError, match="setup_cycles must be >= 0"):
            LinkSpec(setup_cycles=-1)

    def test_zero_latency_link(self):
        # cycles_per_word=0 expresses the ideal link of the kernel
        # micro-benchmarks: every transfer completes in setup time only.
        spec = LinkSpec(setup_cycles=0, cycles_per_word=0)
        assert spec.transfer_cycles(0) == 0
        assert spec.transfer_cycles(64) == 0


class TestLink:
    def test_reserve_serializes(self):
        net = Interconnect(LinkSpec(setup_cycles=2, word_bytes=4))
        link = net.link(0, 1)
        start1, arrive1 = link.reserve(now=0, message_bytes=8)
        assert (start1, arrive1) == (0, 4)
        start2, arrive2 = link.reserve(now=0, message_bytes=8)
        assert start2 == 4  # waits for the first transfer
        assert arrive2 == 8

    def test_idle_link_starts_immediately(self):
        net = Interconnect()
        link = net.link(0, 1)
        link.reserve(now=0, message_bytes=4)
        start, _ = link.reserve(now=100, message_bytes=4)
        assert start == 100


class TestInterconnect:
    def test_directional_links_distinct(self):
        net = Interconnect()
        assert net.link(0, 1) is not net.link(1, 0)
        assert net.link(0, 1) is net.link(0, 1)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="same-PE"):
            Interconnect().link(2, 2)
