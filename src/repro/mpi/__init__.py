"""Message passing with an mpi4py-style surface.

The paper implements its routers on MPI; MPI is not a dependency here,
so rank programs run on one of two transports: cooperating threads
inside one process (``inprocess``, the deterministic default) or one OS
process per rank over pipes (``multiprocess``, for measured wall-clock
times on real cores).  The semantics mirror MPI where the algorithms need
them — buffered point-to-point sends matched by ``(source, tag)``, and the
standard collectives built from point-to-point trees — and every
communication optionally advances per-rank :class:`~repro.perfmodel.clock.
LogicalClock` objects, which is how modeled speedups arise.

Determinism contract: rank programs in this repository never use
wildcard-source receives, and collectives complete in a fixed message
order, so routing results are bit-identical across runs regardless of
thread scheduling.

Entry point::

    from repro.mpi import run_spmd

    def program(comm):
        data = comm.bcast([1, 2, 3] if comm.rank == 0 else None, root=0)
        return comm.allreduce(comm.rank)

    out = run_spmd(4, program)
    assert out.values == [6, 6, 6, 6]
"""

from repro.mpi.comm import Communicator, ReduceOp, Request, SUM, MAX, MIN, CONCAT
from repro.mpi.runtime import run_spmd, SpmdResult, RankError, DeadlockError
from repro.mpi.sizes import estimate_size

__all__ = [
    "Communicator",
    "ReduceOp",
    "SUM",
    "MAX",
    "MIN",
    "CONCAT",
    "Request",
    "run_spmd",
    "SpmdResult",
    "RankError",
    "DeadlockError",
    "estimate_size",
]
