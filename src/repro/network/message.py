"""Message kinds and sizes exchanged by the resource managers.

Sizes are calibrated to what Slurm-family RMs actually put on the wire:
job-launch credentials and environment run to tens of kilobytes, while
heartbeats are a couple of hundred bytes.
"""

from __future__ import annotations

import enum


class MessageKind(enum.Enum):
    """Protocol message types (superset of what the experiments use)."""

    JOB_LAUNCH = "job_launch"  # "Message 1" of Fig. 8a
    JOB_TERMINATE = "job_terminate"  # "Message 2" of Fig. 8a
    HEARTBEAT = "heartbeat"
    HEARTBEAT_ACK = "heartbeat_ack"
    NODE_STATUS = "node_status"
    USER_REQUEST = "user_request"  # squeue/sbatch-style RPC
    USER_REPLY = "user_reply"
    BROADCAST_TASK = "broadcast_task"  # master -> satellite sub-task
    AGGREGATED_REPLY = "aggregated_reply"  # satellite -> master roll-up
    SHUTDOWN = "shutdown"


#: Default payload sizes in bytes per message kind.
DEFAULT_SIZES: dict[MessageKind, int] = {
    MessageKind.JOB_LAUNCH: 16_384,
    MessageKind.JOB_TERMINATE: 2_048,
    MessageKind.HEARTBEAT: 256,
    MessageKind.HEARTBEAT_ACK: 128,
    MessageKind.NODE_STATUS: 512,
    MessageKind.USER_REQUEST: 1_024,
    MessageKind.USER_REPLY: 4_096,
    MessageKind.BROADCAST_TASK: 8_192,
    MessageKind.AGGREGATED_REPLY: 4_096,
    MessageKind.SHUTDOWN: 64,
}
