"""The package's public names: each one in ``formukit.__all__`` is listed once
and resolves to an attribute of the package."""

import formukit


def test_all_names_resolve_once():
    names = formukit.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(formukit, n)] == []
