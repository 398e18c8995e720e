"""Server shutdown with open keep-alive connections writes nothing to
stderr.

Stopping the server cancels every connection handler still alive.  A
handler whose peer hung up a moment earlier is already in its close path
(``writer.wait_closed()``); cancelling it there used to end the task
cancelled, and asyncio's stream callback then logged a ``CancelledError``
traceback.  The check runs in a child process so the loop's default
exception handler writes to a real stderr, uncaptured by pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: start, hold one idle keep-alive connection plus a few that are
#: half-closed right before the stop (the window the cancel hits), stop
_CHILD = """
import socket
from urllib.parse import urlsplit

from repro.service import ServerThread

for _ in range(10):
    server = ServerThread(seed_catalog=False)
    url = urlsplit(server.start())
    conns = []
    for _ in range(4):
        s = socket.create_connection((url.hostname, url.port))
        s.sendall(b"GET /healthz HTTP/1.1\\r\\nHost: registry\\r\\n\\r\\n")
        assert s.recv(65536).startswith(b"HTTP/1.1 200")
        conns.append(s)
    idle, closing = conns[0], conns[1:]
    for s in closing:
        s.shutdown(socket.SHUT_WR)
    server.stop()
    for s in conns:
        s.close()
print("stopped 10 servers")
"""


def test_stop_with_open_connections_writes_no_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "stopped 10 servers" in done.stdout
    assert "Traceback" not in done.stderr, done.stderr
    assert "CancelledError" not in done.stderr, done.stderr
