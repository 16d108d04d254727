"""Tests for the message kinds and their wire sizes."""

from repro.network.message import DEFAULT_SIZES, MessageKind


class TestMessage:
    def test_every_kind_has_a_default_size(self):
        for kind in MessageKind:
            assert DEFAULT_SIZES[kind] > 0

    def test_launch_bigger_than_heartbeat(self):
        # credentials + env dwarf a ping — the Fig. 8a msg1/msg2 asymmetry
        assert DEFAULT_SIZES[MessageKind.JOB_LAUNCH] > DEFAULT_SIZES[MessageKind.HEARTBEAT]
