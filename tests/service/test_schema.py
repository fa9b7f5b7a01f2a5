"""Request-schema validation: every bad body is a 400, never a crash."""

from __future__ import annotations

import pytest

from repro.service.schema import (
    REQUEST_KEYS,
    ServiceRequestError,
    point_from_request,
    request_from_point,
)


class TestPointFromRequest:
    def test_minimal_request_gets_cli_defaults(self):
        point = point_from_request({"circuit": "primary1"})
        assert point.algorithm == "serial"
        assert point.nprocs == 1
        assert point.scale == 0.1
        assert point.circuit_seed == 1
        assert point.config.seed == 1
        assert point.machine == "SparcCenter-1000"

    def test_serial_forces_single_rank(self):
        point = point_from_request({"circuit": "primary1", "nprocs": 8})
        assert point.nprocs == 1

    def test_parallel_keeps_requested_ranks(self):
        point = point_from_request(
            {"circuit": "primary1", "algorithm": "rowwise", "nprocs": 3}
        )
        assert point.nprocs == 3

    def test_identical_bodies_share_a_key(self):
        a = point_from_request({"circuit": "primary1", "scale": 0.05})
        b = point_from_request({"scale": 0.05, "circuit": "primary1"})
        assert a.key() == b.key()

    def test_different_seeds_get_different_keys(self):
        a = point_from_request({"circuit": "primary1", "seed": 1})
        b = point_from_request({"circuit": "primary1", "seed": 2})
        assert a.key() != b.key()

    @pytest.mark.parametrize(
        "body",
        [
            "not a dict",
            ["circuit", "primary1"],
            {},  # missing circuit
            {"circuit": "primary1", "bogus": 1},
            {"circuit": "primary1", "algorithm": "quantum"},
            {"circuit": "primary1", "nprocs": "four", "algorithm": "rowwise"},
            {"circuit": "primary1", "nprocs": True, "algorithm": "rowwise"},
            {"circuit": "primary1", "scale": "big"},
            {"circuit": 42},
            {"circuit": "no-such-benchmark"},
            {"circuit": "primary1", "scale": -1.0},
            {"circuit": "primary1", "fault_plan": "no-such-plan"},
            {"circuit": "primary1", "backend": "fortran"},
            {"circuit": "primary1", "scale": 2.0},  # the generator only shrinks
            {"circuit": "primary1", "transport": "auto"},  # two names only
        ],
    )
    def test_malformed_bodies_raise_request_error(self, body):
        with pytest.raises(ServiceRequestError):
            point_from_request(body)

    def test_backend_key_is_rejected_listing_allowed_keys(self):
        """The congestion core has one implementation, so a request can
        no longer name one; the 400 message tells the client what it may
        send instead."""
        assert "backend" not in REQUEST_KEYS
        with pytest.raises(ServiceRequestError) as exc:
            point_from_request({"circuit": "primary1", "backend": "fortran"})
        message = str(exc.value)
        assert "unknown request key(s) ['backend']" in message
        assert f"allowed: {sorted(REQUEST_KEYS)}" in message

    def test_round_trip_through_request_body(self):
        point = point_from_request(
            {
                "circuit": "struct",
                "algorithm": "rowwise",
                "nprocs": 2,
                "scale": 0.2,
                "seed": 9,
            }
        )
        again = point_from_request(request_from_point(point))
        assert again.key() == point.key()
