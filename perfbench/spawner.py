"""Start benchmark jobs from a small process and report their resource use.

On Linux a child started by vfork (``posix_spawn``) or fork reports in
``ru_maxrss`` at least the resident size of the process that started it,
so a benchmark holding many job outputs would read its own size as the
jobs' peak memory.  This helper stays small (about 10 MB, started with
``python3 -S``), so the max RSS that ``os.wait4`` returns for a job is the
job's own whenever the job is larger than the helper, which every
magiccount command is.

Protocol, one job at a time: the client writes one JSON line
``{"cmd": [...], "timeout": s}`` to stdin; the helper answers with one
JSON line ``{"spawned", "wall_s", "status", "maxrss_kb", "stdout", "stderr"}``
(the last two are byte counts) followed by the raw stdout and stderr
bytes.  The helper exits at end of input.  Jobs inherit its environment.
"""

import json
import os
import selectors
import signal
import sys
import time


def spawn(cmd, env, timeout):
    """Run ``cmd``; returns (spawn time, wall s, exit status or None, max RSS KB, stdout, stderr).

    The child is reaped with ``os.wait4`` so its own resource usage is
    read; a child still running after ``timeout`` seconds is killed and
    its status is None.
    """
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks = {out_r: [], err_r: []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(out_r, selectors.EVENT_READ)
            sel.register(err_r, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    killed = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        killed = True
        raise
    finally:
        os.close(out_r)
        os.close(err_r)
        if killed:
            os.kill(pid, signal.SIGKILL)
        _, wait_status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    status = None if killed else os.waitstatus_to_exitcode(wait_status)
    return start, wall, status, usage.ru_maxrss, b"".join(chunks[out_r]), b"".join(chunks[err_r])


def serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        start, wall, status, rss, out, err = spawn(req["cmd"], os.environ, req["timeout"])
        head = {"spawned": start, "wall_s": wall, "status": status, "maxrss_kb": rss,
                "stdout": len(out), "stderr": len(err)}
        replies.write(json.dumps(head).encode() + b"\n" + out + err)
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
