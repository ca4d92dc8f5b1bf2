"""The package's export list."""

import kspm


def test_all_names_resolve_without_duplicates():
    assert len(kspm.__all__) == len(set(kspm.__all__))
    assert [name for name in kspm.__all__ if not hasattr(kspm, name)] == []
