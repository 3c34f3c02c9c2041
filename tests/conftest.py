"""Make the src layout importable when the package is not installed, and
give tests an empty sphere-map basis cache on request."""

import sys
from pathlib import Path

import pytest

src = Path(__file__).resolve().parent.parent / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))


@pytest.fixture
def fresh_bases():
    """An empty sphere-map basis cache, so that basis_Hm builds each basis
    the test asks for while the test watches; emptied again afterwards, so
    that no basis built under the test's patches is kept."""
    from densitylab import sphere_maps
    sphere_maps._cached_basis.cache_clear()
    yield
    sphere_maps._cached_basis.cache_clear()
