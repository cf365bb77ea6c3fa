"""Shared fixtures: the server-test leak guard.

Server tests start real threads and sockets, and durability tests open
WAL and checkpoint files; a test that forgets to stop a server or close
a database must fail loudly here rather than slowing every later test.
The guard snapshots non-daemon threads, this process's open socket fds
and its open WAL/checkpoint fds before each guarded test and asserts all
three return to baseline afterwards, retrying briefly so orderly
teardown has time to finish.  Module-scoped servers are fine: pytest
instantiates them before the first test's snapshot and tears them down
after the last one's.
"""

import os
import threading
import time

import pytest

#: Test modules whose tests touch server sockets/threads or WAL files.
_GUARDED_MODULES = (
    "test_server",
    "test_server_lifecycle",
    "test_chaos_online",
    "test_broadcast",
    "test_durability",
    "test_replication",
    "test_wire_format",
    "test_connection",
)


def _durable_fds() -> int:
    """Open WAL/checkpoint file descriptors (durable-storage leak check)."""
    count = 0
    try:
        fd_dir = "/proc/self/fd"
        for name in os.listdir(fd_dir):
            try:
                target = os.readlink(os.path.join(fd_dir, name))
            except OSError:
                continue
            base = os.path.basename(target)
            if base == "wal.log" or "/checkpoint-" in target:
                count += 1
    except OSError:
        pass
    return count


def _socket_fds() -> set:
    """Inode-ish identifiers of this process's open socket fds."""
    sockets = set()
    try:
        fd_dir = "/proc/self/fd"
        for name in os.listdir(fd_dir):
            try:
                target = os.readlink(os.path.join(fd_dir, name))
            except OSError:
                continue
            if target.startswith("socket:"):
                sockets.add(target)
    except OSError:
        pass  # no procfs (non-Linux); the thread check still applies
    return sockets


def _live_non_daemon() -> set:
    return {t for t in threading.enumerate()
            if t.is_alive() and not t.daemon}


@pytest.fixture(autouse=True)
def leak_guard(request):
    """Fail any guarded test that leaks threads, sockets or WAL and
    checkpoint fds."""
    module = request.node.module.__name__.rsplit(".", 1)[-1]
    if module not in _GUARDED_MODULES:
        yield
        return
    threads_before = _live_non_daemon()
    # a count, not identities: a client that (correctly) reconnects
    # replaces its socket fd without growing the total
    sockets_before = len(_socket_fds())
    durable_before = _durable_fds()
    yield
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        leaked_threads = _live_non_daemon() - threads_before
        leaked_sockets = len(_socket_fds()) - sockets_before
        leaked_durable = _durable_fds() - durable_before
        if not leaked_threads and leaked_sockets <= 0 \
                and leaked_durable <= 0:
            return
        time.sleep(0.05)
    assert not leaked_threads, (
        f"leaked non-daemon threads: {[t.name for t in leaked_threads]}")
    assert leaked_sockets <= 0, (
        f"leaked {leaked_sockets} socket fd(s)")
    assert leaked_durable <= 0, (
        f"leaked {leaked_durable} WAL/checkpoint fd(s)")
