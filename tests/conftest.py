import pytest

from trackdistill.teachers import close_factories


@pytest.fixture
def closing():
    """A list for the test's teacher factories; each is closed when the test ends."""
    factories = []
    yield factories
    close_factories(factories)
