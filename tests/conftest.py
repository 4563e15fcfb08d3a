import pytest


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run the slow (large-degree) cases")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow case: pass --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty the builtin, pipeline, Omega and family-group caches for one
    test, so every group and space it reads is built anew; the caches come
    back when the test ends.  The fixture's value, called, empties them
    again."""
    from rank3pls import catalog, families, omega, pipeline

    def empty():
        monkeypatch.setattr(catalog, "_CACHE", {})
        monkeypatch.setattr(pipeline, "_PIPE_CACHE", {})
        monkeypatch.setattr(omega, "_SPACE_CACHE", {})
        monkeypatch.setattr(families, "_GROUPS", {})

    empty()
    return empty
