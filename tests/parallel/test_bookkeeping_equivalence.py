"""Pins the replicated per-rank bookkeeping of the SPMD programs.

Every rank of the row-wise and hybrid programs partitions the rows and
the nets and cuts its own sub-circuit out of the gathered whole-net
trees.  That bookkeeping feeds everything downstream (the coarse pool,
the fake pins, the modeled rank clocks), so a faster implementation must
compute exactly the same thing.  The fingerprints below were recorded
from the straightforward per-net implementation; each one hashes

* ``RowPartition.balanced`` bounds and ``partition_nets`` under all four
  schemes, and
* per rank, the whole ``extract_block`` output (pool entries, local
  cells, pins, fake pins, nets and net maps) together with the exact
  ``(kind, units)`` sequence of its work charges — modeled clocks are
  float sums, so the order of the charges matters too.
"""

import hashlib
from typing import List, Tuple

import pytest

from repro.circuits import mcnc
from repro.parallel import NET_SCHEMES, RowPartition, extract_block, partition_nets
from repro.steiner import build_net_tree
from repro.twgr import RouterConfig

CIRCUITS = ("primary1", "struct")
SEEDS = (1, 2, 3)
NPROCS = (2, 3, 5)
SCALE = 0.25


class RecordingCounter:
    """Keeps every charge, in order."""

    def __init__(self) -> None:
        self.charges: List[Tuple[str, float]] = []

    def add(self, kind: str, units: float) -> None:
        self.charges.append((kind, units))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def block_state(block) -> tuple:
    """Everything a rank's sub-circuit carries, as plain tuples."""
    c = block.circuit
    return (
        block.rank, block.row_lo, block.row_hi, block.num_fake_pins,
        tuple(block.net_l2g), tuple(sorted(block.net_g2l.items())),
        tuple(
            (lnet, s.a.x, s.a.row, s.b.x, s.b.row, locked)
            for lnet, s, locked in block.pool
        ),
        tuple(tuple(r.cells) for r in c.rows),
        tuple((x.id, x.row, x.x, x.width, tuple(x.pins), x.is_feed) for x in c.cells),
        tuple(
            (p.id, p.net, p.cell, p.x, p.row, p.side, p.has_equiv, p.kind.name)
            for p in c.pins
        ),
        tuple((n.id, n.name, tuple(n.pins)) for n in c.nets),
        tuple(sorted((r, tuple(ids)) for r, ids in c._fake_pins_by_row.items())),
    )


def partition_fingerprint(circuit, nprocs: int) -> str:
    row_part = RowPartition.balanced(circuit, nprocs)
    owners = tuple(
        (scheme, tuple(partition_nets(circuit, nprocs, scheme, row_part=row_part).tolist()))
        for scheme in NET_SCHEMES
    )
    return digest((row_part.bounds, owners))


def block_fingerprints(circuit, nprocs: int) -> List[str]:
    config = RouterConfig()
    trees = {
        net.id: build_net_tree(
            net.id, circuit.net_points(net.id), row_pitch=config.row_pitch
        )
        for net in circuit.nets
    }
    row_part = RowPartition.balanced(circuit, nprocs)
    out = []
    for rank in range(nprocs):
        counter = RecordingCounter()
        block = extract_block(
            circuit, trees, row_part, rank, validate=True, counter=counter
        )
        out.append(digest((block_state(block), tuple(counter.charges))))
    return out


PARTITION_GOLDEN = {
    ('primary1', 1, 2): 'fe17889015491525',
    ('primary1', 1, 3): '57026cf464296284',
    ('primary1', 1, 5): 'd2416fa3d813b949',
    ('primary1', 2, 2): 'edbb2044c3653890',
    ('primary1', 2, 3): 'fccdb5f2a8f3a923',
    ('primary1', 2, 5): '26a99b3cfe3c2753',
    ('primary1', 3, 2): '8851fc5d8509c228',
    ('primary1', 3, 3): 'fa7a488335dd2149',
    ('primary1', 3, 5): 'a6ba0cd1a500481d',
    ('struct', 1, 2): 'a025d0a441335548',
    ('struct', 1, 3): '46379c255fc37d52',
    ('struct', 1, 5): 'e7a78bb59e08b524',
    ('struct', 2, 2): '2d4a0be2e4b7fb83',
    ('struct', 2, 3): 'd84a80841faaca03',
    ('struct', 2, 5): 'a71678fea51f90c4',
    ('struct', 3, 2): 'b141757108529c2e',
    ('struct', 3, 3): 'b3d90011d1b00f51',
    ('struct', 3, 5): 'f812ca6b9908e4d6',
}

BLOCK_GOLDEN = {
    ('primary1', 1, 2): ['76c8ac7c4bae53d0', '377921c2de5e1f8e'],
    ('primary1', 1, 3): ['c5b7fb8d58298f1a', 'c07d00b062d3cd7f', '9f2bf829c56dadfe'],
    ('primary1', 1, 5): ['13a33fe1a6a2fec5', '2f41182c5c212f06', 'b40b5ab441c77c24', 'a9f7031689c814cd', 'c5426d970cd36842'],
    ('primary1', 2, 2): ['dfd9c13e328da41f', '14e65c8a6df0a45c'],
    ('primary1', 2, 3): ['3bf0e3862f3ce87b', '54e9cdc5c1a5ba12', '38923ad80c358bd0'],
    ('primary1', 2, 5): ['21bbfc6cbc122640', '1d0fac364e09cca9', 'dd67a6ded827baa9', 'a42e1b7257136762', '15bcfec57749c471'],
    ('primary1', 3, 2): ['363b10613735c1de', '0538526a09a0c6c5'],
    ('primary1', 3, 3): ['4c2b786efec8f62f', 'f44bff9d9c2f5cb7', '05c2bcb8ffd57831'],
    ('primary1', 3, 5): ['d85066ffdba6a121', '38bf0a8d01e7dd55', '2a9156cae16c0fd2', '5e2175a3a94fbc8f', '2ed7f9e24cf44af1'],
    ('struct', 1, 2): ['efb6813349cd3536', 'd8438d08cf67b7f8'],
    ('struct', 1, 3): ['908e15a571b3f7ec', 'df24047dccd995d5', 'e8c120ad8c38291b'],
    ('struct', 1, 5): ['41f254058f404fa4', 'cc4d22da3a76ff24', '51bf69c5e3c1df32', 'f0a12b572a4cabb8', 'b759622fd8bf2a94'],
    ('struct', 2, 2): ['1c5f9fe2da4ca31b', 'a1719b5264f49e4e'],
    ('struct', 2, 3): ['992f31d8788490f6', 'ce96e1d6331d1e5e', '632c5b68622a7b32'],
    ('struct', 2, 5): ['804064e2a7566cb8', '9ee195d0bf11b6ca', '205a2b5a7123cdf1', '8da88508fed5e92d', 'b6fcfa8dcf76def8'],
    ('struct', 3, 2): ['8386c2690962674d', '4c7ae21369ccb8eb'],
    ('struct', 3, 3): ['b238622a70b19986', '531d0c299725c17b', 'e69599681e0938c2'],
    ('struct', 3, 5): ['7ab0e3203e29f6cc', 'a58dd883a07949ca', '49e870b356e536c7', '9be782d36a4a902f', 'd7f0cdb2c0697167'],
}


@pytest.fixture(scope="module", params=[(n, s) for n in CIRCUITS for s in SEEDS],
                ids=lambda p: f"{p[0]}-s{p[1]}")
def case(request):
    name, seed = request.param
    return name, seed, mcnc.generate(name, scale=SCALE, seed=seed)


@pytest.mark.parametrize("nprocs", NPROCS)
def test_partitions_match_recorded(case, nprocs):
    name, seed, circuit = case
    assert partition_fingerprint(circuit, nprocs) == PARTITION_GOLDEN[(name, seed, nprocs)]


@pytest.mark.parametrize("nprocs", NPROCS)
def test_blocks_and_charges_match_recorded(case, nprocs):
    name, seed, circuit = case
    assert block_fingerprints(circuit, nprocs) == BLOCK_GOLDEN[(name, seed, nprocs)]
