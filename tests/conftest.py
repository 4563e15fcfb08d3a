import pytest


def pytest_addoption(parser):
    # the slow (large-degree) cases run by default; `-m slow` selects them
    # alone, and the flag is still accepted so older commands keep working
    parser.addoption("--runslow", action="store_true", default=False,
                     help="accepted for compatibility: slow cases always run")


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty the builtin, Omega-space and Omega-group caches for one test,
    so every group and space it reads is built anew, and with them every
    pipeline result kept in a group's store; the caches come back when the
    test ends.  The fixture's value, called, empties them again."""
    from rank3pls import catalog, omega

    def empty():
        monkeypatch.setattr(catalog, "_CACHE", {})
        monkeypatch.setattr(omega, "_SPACE_CACHE", {})
        monkeypatch.setattr(omega, "_GROUP_CACHE", {})

    empty()
    return empty
