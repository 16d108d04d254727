"""Tests for the message layer."""

from repro.network.message import DEFAULT_SIZES, Message, MessageKind


class TestMessage:
    def test_default_sizes_applied(self):
        msg = Message(MessageKind.JOB_LAUNCH, src=0, dst=1)
        assert msg.size_bytes == DEFAULT_SIZES[MessageKind.JOB_LAUNCH]

    def test_explicit_size_kept(self):
        msg = Message(MessageKind.HEARTBEAT, src=0, dst=1, size_bytes=999)
        assert msg.size_bytes == 999

    def test_every_kind_has_a_default_size(self):
        for kind in MessageKind:
            assert DEFAULT_SIZES[kind] > 0

    def test_launch_bigger_than_heartbeat(self):
        # credentials + env dwarf a ping — the Fig. 8a msg1/msg2 asymmetry
        assert DEFAULT_SIZES[MessageKind.JOB_LAUNCH] > DEFAULT_SIZES[MessageKind.HEARTBEAT]

    def test_ids_unique_and_increasing(self):
        a = Message(MessageKind.HEARTBEAT, 0, 1)
        b = Message(MessageKind.HEARTBEAT, 0, 1)
        assert b.msg_id > a.msg_id
