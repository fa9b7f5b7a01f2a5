"""Request schema: JSON body ⇄ :class:`~repro.exec.engine.SweepPoint`.

A routing request is a flat JSON object naming the deterministic run the
client wants.  Everything is optional except ``circuit``; defaults match
the CLI's::

    {
        "circuit":   "primary1",          # required benchmark name
        "algorithm": "serial",            # serial | rowwise | netwise | hybrid
        "nprocs":    4,                   # ranks (forced to 1 for serial)
        "scale":     0.1,                 # circuit scale (DEFAULT_SCALE)
        "seed":      1,                   # circuit + router seed
        "machine":   "SparcCenter-1000",  # performance model
        "transport": "inprocess",         # inprocess | multiprocess
        "fault_plan": "",                 # named SPMD fault plan ("" = none)
        "fault_seed": 0                   # seed of that plan
    }

Validation is fail-fast and total: unknown keys, wrong types, and
out-of-range values all raise :class:`ServiceRequestError` *before* the
request reaches the job queue, so a malformed request costs a 400
response, never a worker crash.  The resulting point is by-value
deterministic — its :meth:`~repro.exec.engine.SweepPoint.key` is the
coalescing and cache identity of the request.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.circuits.generator import DEFAULT_SCALE, MAX_SCALE
from repro.exec.engine import SweepPoint
from repro.twgr.config import RouterConfig

#: every key a request body may carry (anything else is a 400)
REQUEST_KEYS = frozenset(
    {
        "circuit", "algorithm", "nprocs", "scale", "seed", "machine",
        "transport", "fault_plan", "fault_seed",
    }
)

ALGORITHMS = ("serial", "rowwise", "netwise", "hybrid")


class ServiceRequestError(ValueError):
    """A request body the service refuses (maps to HTTP 400)."""


def _req_int(data: Dict[str, Any], key: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceRequestError(f"{key!r} must be an integer, got {value!r}")
    return value


def _req_float(data: Dict[str, Any], key: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceRequestError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _req_str(data: Dict[str, Any], key: str, default: str) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ServiceRequestError(f"{key!r} must be a string, got {value!r}")
    return value


def point_from_request(data: Any) -> SweepPoint:
    """Validate a request body into its :class:`SweepPoint`.

    Raises :class:`ServiceRequestError` with a client-actionable message
    on any malformed input; a returned point has already passed
    :meth:`SweepPoint.validate`.
    """
    if not isinstance(data, dict):
        raise ServiceRequestError("request body must be a JSON object")
    unknown = sorted(set(data) - REQUEST_KEYS)
    if unknown:
        raise ServiceRequestError(
            f"unknown request key(s) {unknown}; allowed: {sorted(REQUEST_KEYS)}"
        )
    if "circuit" not in data:
        raise ServiceRequestError("request must name a 'circuit'")
    algorithm = _req_str(data, "algorithm", "serial")
    if algorithm not in ALGORITHMS:
        raise ServiceRequestError(
            f"unknown algorithm {algorithm!r}; choose from {list(ALGORITHMS)}"
        )
    seed = _req_int(data, "seed", 1)
    scale = _req_float(data, "scale", DEFAULT_SCALE)
    if not 0.0 < scale <= MAX_SCALE:
        raise ServiceRequestError(
            f"'scale' must be in (0, {MAX_SCALE:g}], got {scale}"
        )
    point = SweepPoint(
        circuit=_req_str(data, "circuit", ""),
        algorithm=algorithm,
        nprocs=1 if algorithm == "serial" else _req_int(data, "nprocs", 4),
        scale=scale,
        circuit_seed=seed,
        machine=_req_str(data, "machine", "SparcCenter-1000"),
        config=RouterConfig(
            seed=seed,
            transport=_req_str(data, "transport", "inprocess"),
        ),
        fault_plan=_req_str(data, "fault_plan", ""),
        fault_seed=_req_int(data, "fault_seed", 0),
    )
    try:
        point.validate()
    except (KeyError, ValueError) as exc:
        detail = exc.args[0] if exc.args else exc
        raise ServiceRequestError(f"invalid request: {detail}") from exc
    return point


def request_from_point(point: SweepPoint) -> Dict[str, Any]:
    """The JSON body that round-trips to ``point`` (inverse of
    :func:`point_from_request`)."""
    body: Dict[str, Any] = {
        "circuit": point.circuit,
        "algorithm": point.algorithm,
        "scale": point.scale,
        "seed": point.circuit_seed,
        "machine": point.machine,
    }
    if point.algorithm != "serial":
        body["nprocs"] = point.nprocs
    if point.config.transport != "inprocess":
        body["transport"] = point.config.transport
    if point.fault_plan:
        body["fault_plan"] = point.fault_plan
        body["fault_seed"] = point.fault_seed
    return body
