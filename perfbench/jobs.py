"""One job = one cold CLI process, timed from spawn to reap.

The child is reaped with ``os.wait4`` so that its own max-RSS is known, and
killed by a timer when it outlives its limit.  Its standard output goes to a
file inside the checkout, so an 800 KB report cannot block on a pipe.
"""

import json
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field


class CheckFailed(Exception):
    """The job ran but its output is wrong."""


@dataclass(frozen=True)
class Job:
    """A command and the check its output must pass.

    ``argv`` follows the interpreter prefix (e.g. ``-m voaplus``); ``check``
    receives the parsed JSON output and raises CheckFailed when it is wrong.
    """
    name: str
    argv: tuple
    check: object
    timeout_s: float
    env: dict = field(default_factory=dict)


@dataclass
class JobResult:
    name: str
    wall_s: float
    rss_mb: float
    returncode: int
    error: str = None          # None when the job passed every check

    @property
    def failed(self):
        return self.error is not None


def spawn(argv, env, out_path, timeout_s):
    """Run argv to completion; return (wall_s, rss_mb, returncode, timed_out)."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a pid
            # that has already been released and reused
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            wall = time.perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, state["killed"]


def _stderr_tail(out_path):
    with open(out_path + ".err", "rb") as fh:
        text = fh.read().decode("utf-8", "replace").strip()
    return text.splitlines()[-1] if text else ""


def run_job(job, prefix, env, out_path, timeout_s=None):
    """Run one job and check its output outside the timed region.

    A failed job (nonzero exit, timeout, bad output) is charged its time
    limit as wall time, so that a failure never makes a pass look faster.
    """
    limit = job.timeout_s if timeout_s is None else min(job.timeout_s, timeout_s)
    full_env = dict(env)
    full_env.update(job.env)
    wall, rss, rc, timed_out = spawn(list(prefix) + list(job.argv), full_env,
                                     out_path, limit)
    error = None
    if timed_out:
        error = "timed out after %.1f s" % limit
    elif rc != 0:
        error = "exit code %d: %s" % (rc, _stderr_tail(out_path))
    else:
        try:
            with open(out_path, "rb") as fh:
                doc = json.load(fh)
            job.check(doc)
        except Exception as exc:       # any wrong output fails the job only
            error = "%s: %s" % (type(exc).__name__, exc)
    if error is not None:
        wall = max(wall, job.timeout_s)
    return JobResult(name=job.name, wall_s=wall, rss_mb=rss, returncode=rc,
                     error=error)
