"""The step-1 tree payload: a dict that pickles as flat arrays."""

from __future__ import annotations

import pickle

import pytest

from repro.geometry import Point
from repro.mpi.sizes import estimate_size
from repro.steiner.tree import NetTree, TreeSet, build_net_tree


def _cases():
    steiner = build_net_tree(
        7, [Point(0, 0), Point(10, 0), Point(5, 8), Point(5, -6), Point(20, 3)]
    )
    assert len(steiner.points) > steiner.num_terminals  # has Steiner points
    duplicate = build_net_tree(3, [Point(4, 2), Point(4, 2), Point(9, 5), Point(4, 2)])
    return {
        "steiner": [steiner],
        "duplicate terminals": [duplicate],
        "0 and 1 terminals": [build_net_tree(0, []), build_net_tree(1, [Point(6, 1)])],
        "empty": [],
        "mixed": [steiner, duplicate, build_net_tree(2, [Point(1, 1), Point(8, 3)])],
    }


@pytest.mark.parametrize("case", sorted(_cases()))
def test_pickle_round_trip_gives_equal_dict(case):
    plain = {t.net: t for t in _cases()[case]}
    back = pickle.loads(pickle.dumps(TreeSet(plain)))
    assert isinstance(back, dict)
    assert back == plain
    assert list(back) == list(plain)  # insertion order survives
    for tree in back.values():
        assert type(tree) is NetTree
        assert all(type(p) is Point for p in tree.points)
        assert all(type(e) is tuple for e in tree.edges)


@pytest.mark.parametrize("case", sorted(_cases()))
def test_estimate_size_matches_plain_dict(case):
    plain = {t.net: t for t in _cases()[case]}
    assert estimate_size(TreeSet(plain)) == estimate_size(plain)
    assert estimate_size([TreeSet(plain)]) == estimate_size([plain])

