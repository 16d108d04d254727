"""Order-free counter merging: the determinism-by-merge building block."""

from repro.parallel import merge_counter_maps


class TestCounters:
    def test_sums_name_by_name(self):
        merged = merge_counter_maps([{"a": 1.0, "b": 2.0}, {"b": 3.0, "c": 4.0}])
        assert merged == {"a": 1.0, "b": 5.0, "c": 4.0}

    def test_order_free(self):
        sections = [{"x": 1.0}, {"x": 2.0, "y": 7.0}, {"y": 1.0}]
        assert merge_counter_maps(sections) == merge_counter_maps(reversed(sections))

    def test_keys_sorted(self):
        assert list(merge_counter_maps([{"z": 1.0, "a": 1.0}])) == ["a", "z"]
