from repro.perfmodel import NULL_COUNTER, NullCounter, TallyCounter, WorkCounter


def test_null_counter_discards():
    NULL_COUNTER.add("x", 100)  # no state to assert, must not raise
    assert isinstance(NULL_COUNTER, NullCounter)


def test_tally_accumulates():
    t = TallyCounter()
    t.add("a", 5)
    t.add("a", 3)
    t.add("b", 1.5)
    assert t.units["a"] == 8
    assert t.units["b"] == 1.5
    assert t.total() == 9.5


def test_protocol_conformance():
    assert isinstance(TallyCounter(), WorkCounter)
    assert isinstance(NullCounter(), WorkCounter)


class TestFanoutCounter:
    def test_tallies_and_forwards(self):
        from repro.perfmodel import FanoutCounter

        sink = TallyCounter()
        fan = FanoutCounter(sink)
        fan.add("mst", 5)
        fan.add("mst", 2)
        fan.add("refine", 1)
        # both views see identical charges
        assert fan.tally.units == {"mst": 7, "refine": 1}
        assert sink.units == {"mst": 7, "refine": 1}

    def test_null_sink_skips_forwarding(self):
        from repro.perfmodel import FanoutCounter

        fan = FanoutCounter()  # sink defaults to NULL_COUNTER
        fan.add("mst", 3)
        assert fan.tally.units == {"mst": 3}
        assert fan._forward is False

    def test_external_tally_is_shared(self):
        from repro.perfmodel import FanoutCounter

        tally = TallyCounter()
        fan = FanoutCounter(NULL_COUNTER, tally=tally)
        fan.add("flip", 4)
        assert tally.units == {"flip": 4}
        assert fan.tally is tally

    def test_protocol_conformance(self):
        from repro.perfmodel import FanoutCounter

        assert isinstance(FanoutCounter(), WorkCounter)
