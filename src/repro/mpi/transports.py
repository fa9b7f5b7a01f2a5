"""The SPMD transport registry.

A *transport* is the mechanism that carries rank-to-rank messages under
the :class:`~repro.mpi.comm.Communicator` API.  Two are registered:

* ``inprocess`` — the deterministic reference: all ranks run as threads
  of one process over an in-memory mailbox router
  (:mod:`repro.mpi.runtime`).  Modeled speedups come from the logical
  clocks; wall time means nothing here (the GIL serializes compute).
  This is the default, and the one every test oracle runs on.
* ``multiprocess`` — real parallelism: each rank is an OS process and
  messages travel over pipes (:mod:`repro.mpi.multiproc`), so per-rank
  wall-clock times are *measured* on real cores.  Routing results are
  bit-identical to ``inprocess`` by contract — pickle round-trips
  preserve ints, floats, and numpy arrays exactly — only the measured
  times differ.

Selection precedence: explicit argument
(``RouterConfig.transport`` / ``--transport``) > the
:data:`TRANSPORT_ENV` environment variable > the default
(:data:`DEFAULT_TRANSPORT`).  Every transport request resolves through
:func:`resolve_transport_name`, so an unknown name fails fast with the
registered-name list instead of surfacing later inside a spawned run.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

#: environment override consulted when no explicit transport is configured
TRANSPORT_ENV = "REPRO_TRANSPORT"

#: transport used when neither an argument nor the environment chooses one
DEFAULT_TRANSPORT = "inprocess"


def _make_inprocess() -> Callable[..., object]:
    from repro.mpi.runtime import run_inprocess

    return run_inprocess


def _make_multiprocess() -> Callable[..., object]:
    from repro.mpi.multiproc import run_multiprocess

    return run_multiprocess


#: the transport registry — THE single source of truth for valid
#: transport names.  Everything that accepts a transport request
#: (RouterConfig validation, ``run_spmd``, the REPRO_TRANSPORT
#: environment variable, the CLI ``--transport`` flag) resolves through
#: :func:`resolve_transport_name`.  Factories import lazily so this
#: module stays importable from :mod:`repro.mpi.runtime` without a cycle.
TRANSPORTS: Dict[str, Callable[[], Callable[..., object]]] = {
    "inprocess": _make_inprocess,
    "multiprocess": _make_multiprocess,
}

#: valid transport names, in registration order
TRANSPORT_NAMES: Tuple[str, ...] = tuple(TRANSPORTS)


def resolve_transport_name(name: Optional[str] = None) -> str:
    """Resolve a transport request to a concrete registry name.

    ``None``/``""``/``"auto"`` consult :data:`TRANSPORT_ENV`, then fall
    back to :data:`DEFAULT_TRANSPORT`; an *empty* environment value also
    falls through to the default.  Any other name must be registered in
    :data:`TRANSPORTS` (case-insensitive) — unknown names raise
    ``ValueError`` naming the registered transports, including names
    smuggled in via the environment variable.
    """
    via_env = None
    if name is None or name in ("", "auto"):
        via_env = os.environ.get(TRANSPORT_ENV, "")
        name = via_env or DEFAULT_TRANSPORT
    name = name.lower()
    if name not in TRANSPORTS:
        source = f"{TRANSPORT_ENV}={via_env!r}" if via_env else f"{name!r}"
        raise ValueError(
            f"unknown SPMD transport {source} (choose from {TRANSPORT_NAMES})"
        )
    return name


def get_transport(name: str) -> Callable[..., object]:
    """The runner implementing the registered transport ``name``.

    Runners share one signature (see
    :func:`repro.mpi.runtime.run_inprocess`): ``(nprocs, fn, args,
    kwargs, machine, deadlock_timeout, trace, obs, faults)`` returning a
    :class:`~repro.mpi.runtime.SpmdResult`.
    """
    try:
        factory = TRANSPORTS[name]
    except KeyError:
        raise ValueError(
            f"unknown SPMD transport {name!r} (choose from {TRANSPORT_NAMES})"
        ) from None
    return factory()


__all__ = [
    "DEFAULT_TRANSPORT",
    "TRANSPORT_ENV",
    "TRANSPORT_NAMES",
    "TRANSPORTS",
    "get_transport",
    "resolve_transport_name",
]
