"""The package's public names."""

import finitary


def test_every_export_resolves():
    missing = [name for name in finitary.__all__ if not hasattr(finitary, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert finitary.__all__ == sorted(set(finitary.__all__))


def test_too_large_is_one_class():
    assert finitary.TooLarge is finitary.topology.TooLarge is finitary.errors.TooLarge
