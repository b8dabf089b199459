"""The package's public surface."""

import nodalab


def test_exports_resolve_without_duplicates():
    names = nodalab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(nodalab, n)] == []
