"""The distributed fleet tier: queue-backed execution across workers.

Scaling past one host needs three pieces the in-process executors do not
have: a **durable work queue** that survives worker crashes
(:class:`~repro.distributed.queue.WorkQueue`, a broker-less SQLite file
any number of processes can share), **stateless workers** that pull,
execute and acknowledge work units (``python -m repro.worker``), and an
executor that drives both while keeping the established
:class:`~repro.core.executor.Executor` contract
(:class:`~repro.distributed.executor.DistributedExecutor`, registered as
``"distributed"``).

Work units are plain picklable dictionaries (the same property benchmark
jobs already have), results aggregate idempotently
through lease fencing plus
:func:`repro.benchmark.results.merge_shard_checkpoints`, and the
single-host degenerate case — ``benchmark(..., executor="distributed",
workers=N)`` — spawns N local worker processes against a temporary
queue.
"""

from repro.distributed.executor import DistributedExecutor
from repro.distributed.queue import Lease, WorkQueue
from repro.distributed.worker import drain_queue, execute_work_unit

__all__ = [
    "WorkQueue",
    "Lease",
    "DistributedExecutor",
    "drain_queue",
    "execute_work_unit",
]
