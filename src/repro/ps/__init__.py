"""Parameter-server substrate: master, servers, clients, checkpoints."""

from repro.ps.checkpoint import CheckpointManager, STORAGE_BANDWIDTH
from repro.ps.client import PSClient
from repro.ps.master import MatrixInfo, PSMaster
from repro.ps.partitioner import ColumnLayout, RowLayout
from repro.ps.replication import ChainPolicy, HeatPolicy, ReplicaSubstrate
from repro.ps.retry import MAX_SERVER_RETRIES, RetryPolicy
from repro.ps.server import PSServer, ReplicaEntry, RowShard

__all__ = [
    "CheckpointManager",
    "STORAGE_BANDWIDTH",
    "MAX_SERVER_RETRIES",
    "RetryPolicy",
    "PSClient",
    "MatrixInfo",
    "PSMaster",
    "ColumnLayout",
    "RowLayout",
    "ReplicaSubstrate",
    "HeatPolicy",
    "ChainPolicy",
    "PSServer",
    "ReplicaEntry",
    "RowShard",
]
