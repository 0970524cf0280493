import pytest

import kerovlab.kerov as kerov
from kerovlab.kerov import KerovProvider

_criteria: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): ties a test to one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    num, title = mark.args
    if rep.when == "call" or (rep.when == "setup" and rep.outcome != "passed"):
        _criteria[num] = (title, rep.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_criteria):
        title, outcome = _criteria[num]
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIPPED"}.get(outcome, outcome)
        terminalreporter.write_line(f"criterion {num:>2}: {word}  ({title})")


@pytest.fixture(scope="session")
def provider():
    """One shared provider so each K_r is computed once per test run."""
    return KerovProvider()


class _ShortEchelon(kerov.ModularEchelon):
    def add_row(self, row_ints) -> bool:
        return self.rank < self.ncols - 1 and super().add_row(row_ints)


@pytest.fixture
def short_echelon(monkeypatch):
    """kerov's echelon stops one pivot short of full column rank."""
    monkeypatch.setattr(kerov, "ModularEchelon", _ShortEchelon)
