from contextlib import contextmanager

import pytest

from ledstore import Transaction, create_pool

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def pool_path(tmp_path):
    return str(tmp_path / "test.pool")


@pytest.fixture
def pool(pool_path):
    handle = create_pool(pool_path, "test-layout", 8 * 1024 * 1024)
    yield handle
    if not handle.closed:
        handle.close()


@contextmanager
def recorded_commits(pool, digest):
    """Record the transaction boundaries of `pool` while the block runs.

    Yields (boundaries, ordinals): boundaries starts with `digest(pool)` and
    gains `digest(pool)` after each completed commit; ordinals gains that
    commit's commit point, the store ordinal (`pool._write_ordinal`) of its
    first log-state store: COMMITTING when the transaction defers frees
    (one store after its FREE record), else IDLE; or of its last store if
    it logged nothing. A crash at store k therefore recovers to boundary
    `sum(c < k for c in ordinals)`.
    """
    boundaries, ordinals = [digest(pool)], []
    real_commit = Transaction.commit

    def commit(tx):
        ordinal = tx.pool._write_ordinal + (2 if tx._freed else 1 if tx._log_used else 0)
        real_commit(tx)
        if tx.pool is pool:
            ordinals.append(ordinal)
            boundaries.append(digest(pool))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Transaction, "commit", commit)
        yield boundaries, ordinals


@pytest.fixture
def acceptance_log():
    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
