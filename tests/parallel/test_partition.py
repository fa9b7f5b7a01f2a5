import numpy as np
import pytest

from repro.circuits import mcnc
from repro.parallel import (
    NET_SCHEMES,
    RowPartition,
    net_weights,
    partition_nets,
    partition_summary,
)


@pytest.fixture(scope="module")
def circuit():
    return mcnc.generate("primary1", scale=0.3, seed=2)


class TestRowPartition:
    def test_balanced_covers_all_rows(self, circuit):
        for p in (1, 2, 3, 4, 8):
            part = RowPartition.balanced(circuit, p)
            assert part.nprocs == p
            assert part.bounds[0] == 0
            assert part.bounds[-1] == circuit.num_rows
            rows = [r for k in range(p) for r in part.rows_of(k)]
            assert rows == list(range(circuit.num_rows))

    def test_owner_of_row_consistent(self, circuit):
        part = RowPartition.balanced(circuit, 4)
        for k in range(4):
            for r in part.rows_of(k):
                assert part.owner_of_row(r) == k

    def test_channel_ownership_total(self, circuit):
        part = RowPartition.balanced(circuit, 4)
        owners = [part.owner_of_channel(c) for c in range(circuit.num_rows + 1)]
        # topmost channel belongs to the last rank
        assert owners[-1] == 3
        # ownership is monotone non-decreasing
        assert owners == sorted(owners)

    def test_pin_balance(self, circuit):
        part = RowPartition.balanced(circuit, 4)
        counts = np.zeros(4)
        for pin in circuit.pins:
            counts[part.owner_of_row(pin.row)] += 1
        assert counts.max() / counts.mean() < 1.6

    def test_too_many_procs_rejected(self, circuit):
        with pytest.raises(ValueError):
            RowPartition.balanced(circuit, circuit.num_rows + 1)

    def test_interior_boundaries(self, circuit):
        part = RowPartition.balanced(circuit, 4)
        assert part.interior_boundaries() == list(part.bounds[1:-1])
        assert RowPartition.balanced(circuit, 1).interior_boundaries() == []

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            RowPartition((0, 5, 5, 10))
        with pytest.raises(ValueError):
            RowPartition((1, 5))


class TestNetPartitions:
    @pytest.mark.parametrize("scheme", NET_SCHEMES)
    def test_every_net_assigned(self, circuit, scheme):
        row_part = RowPartition.balanced(circuit, 4)
        owner = partition_nets(circuit, 4, scheme=scheme, row_part=row_part)
        assert len(owner) == len(circuit.nets)
        assert owner.min() >= 0 and owner.max() < 4

    @pytest.mark.parametrize("scheme", NET_SCHEMES)
    def test_single_proc_all_zero(self, circuit, scheme):
        row_part = RowPartition.balanced(circuit, 1)
        owner = partition_nets(circuit, 1, scheme=scheme, row_part=row_part)
        assert (owner == 0).all()

    @pytest.mark.parametrize("scheme", NET_SCHEMES)
    def test_deterministic(self, circuit, scheme):
        row_part = RowPartition.balanced(circuit, 4)
        a = partition_nets(circuit, 4, scheme=scheme, row_part=row_part)
        b = partition_nets(circuit, 4, scheme=scheme, row_part=row_part)
        assert (a == b).all()

    def test_unknown_scheme_rejected(self, circuit):
        with pytest.raises(ValueError, match="unknown net scheme"):
            partition_nets(circuit, 4, scheme="bogus")

    def test_density_requires_row_part(self, circuit):
        with pytest.raises(ValueError, match="row partition"):
            partition_nets(circuit, 4, scheme="density", row_part=None)

    @pytest.mark.parametrize("bad_row", [-1, 10_000])
    def test_density_rejects_out_of_range_rows(self, bad_row):
        circuit = mcnc.generate("primary1", scale=0.3, seed=2)
        row_part = RowPartition.balanced(circuit, 4)
        circuit.pins[circuit.nets[0].pins[0]].row = bad_row
        with pytest.raises(IndexError, match="out of range"):
            partition_nets(circuit, 4, scheme="density", row_part=row_part)

    def test_pin_weight_balances_steiner_work(self, circuit):
        """The pin-number-weight partition must balance p^alpha better
        than the locality-driven schemes (its whole reason to exist)."""
        row_part = RowPartition.balanced(circuit, 8)
        summaries = {}
        for scheme in NET_SCHEMES:
            owner = partition_nets(circuit, 8, scheme=scheme, row_part=row_part, alpha=2.0)
            summaries[scheme] = partition_summary(circuit, owner, 8)
        best = summaries["pin_weight"]["steiner_imbalance"]
        assert best <= min(s["steiner_imbalance"] for s in summaries.values()) + 1e-9
        assert best < 1.2

    def test_pin_weight_spreads_clock_nets(self):
        """avq.large's huge clock nets must land on distinct processors."""
        c = mcnc.generate("avq_large", scale=0.04, seed=1)
        owner = partition_nets(c, 8, scheme="pin_weight", alpha=2.0)
        big = sorted(c.nets, key=lambda n: -n.degree)[:3]
        owners = {int(owner[n.id]) for n in big}
        assert len(owners) == 3

    def test_center_clusters_vertically(self, circuit):
        row_part = RowPartition.balanced(circuit, 4)
        owner = partition_nets(circuit, 4, scheme="center", row_part=row_part)
        # per processor, nets' mean centers must be ordered by rank
        means = []
        for k in range(4):
            rows = [
                np.mean([circuit.pins[p].row for p in net.pins])
                for net in circuit.nets
                if owner[net.id] == k
            ]
            means.append(np.mean(rows))
        assert means == sorted(means)

    def test_density_maximizes_locality(self, circuit):
        row_part = RowPartition.balanced(circuit, 4)
        owner = partition_nets(circuit, 4, scheme="density", row_part=row_part)
        # for most nets, the owner holds the plurality of the net's pins
        hits = 0
        for net in circuit.nets:
            counts = np.zeros(4)
            for p in net.pins:
                counts[row_part.owner_of_row(circuit.pins[p].row)] += 1
            if counts[int(owner[net.id])] == counts.max():
                hits += 1
        assert hits / len(circuit.nets) > 0.6

    def test_weights_shapes(self, circuit):
        row_part = RowPartition.balanced(circuit, 4)
        for scheme in NET_SCHEMES:
            keys = net_weights(circuit, scheme, row_part=row_part)
            assert len(keys) == len(circuit.nets)

    def test_alpha_changes_pin_weight_order(self, circuit):
        a1 = net_weights(circuit, "pin_weight", alpha=1.0)
        a3 = net_weights(circuit, "pin_weight", alpha=3.0)
        assert a1 != a3


def test_partition_summary_fields(circuit):
    owner = partition_nets(circuit, 4, scheme="pin_weight")
    s = partition_summary(circuit, owner, 4)
    assert sum(s["nets_per_rank"]) == len(circuit.nets)
    assert sum(s["pins_per_rank"]) == sum(n.degree for n in circuit.nets)
    assert s["pin_imbalance"] >= 1.0
    assert s["steiner_imbalance"] >= 1.0
