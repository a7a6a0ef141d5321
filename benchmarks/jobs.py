"""Run one `kacmax` job in a fresh process and check what it printed.

A job's output passes when its exit code is 0, every agreement the command
prints holds, and, where a digest of its stdout was recorded, stdout hashes
to that digest.  Digests are keyed by argv, so any seed whose jobs were
recorded gets the byte-for-byte check.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# what the installed `kacmax` console script runs
CLI_STUB = "import sys\nfrom kacmax.cli import main\nsys.exit(main())"

# the start-up probe: interpreter, `import kacmax.cli` and argparse, no math
SETUP_ARGV = ["bijection", "--perm", "1342"]

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass
class JobResult:
    argv: list[str]
    code: int | None  # None when the job was killed at its timeout
    stdout: bytes
    stderr: bytes
    start: float  # perf_counter at launch
    end: float  # perf_counter once reaped
    cpu_s: float  # user + sys of the job and the workers it reaped
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def job_env(src_dir: Path) -> dict[str, str]:
    """The caller's environment with `src` importable.  KACMAX_THREADS is
    dropped so the CLI picks its default worker count."""
    env = dict(os.environ)
    env.pop("KACMAX_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int, fired: threading.Event) -> None:
    fired.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_job(argv: list[str], env: dict[str, str], cwd: Path, timeout: float) -> JobResult:
    """Launch `kacmax <argv>` and reap it with wait4, which returns the CPU
    time and peak RSS of the job together with the pool workers it waited
    for.  On timeout the job's whole process group is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI_STUB, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
        start_new_session=True,
    )
    fired = threading.Event()
    timer = threading.Timer(timeout, _kill_group, (proc.pid, fired))
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(
        argv=argv,
        code=None if fired.is_set() else proc.returncode,
        stdout=out,
        stderr=err[0] if err else b"",
        start=start,
        end=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
    )


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def digest_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def save_digests(digests: dict[str, str], path: Path = DIGESTS_PATH) -> None:
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


def check_output(argv: list[str], code: int | None, stdout: bytes, digests: dict[str, str]) -> str | None:
    """Why the job failed, or None when it passed."""
    if code is None:
        return "timed out"
    if code != 0:
        return f"exit code {code}"
    want = digests.get(digest_key(argv))
    if want is not None and want != digest(stdout):
        return "stdout differs from the recorded digest"
    try:
        return _check_agreement(argv, stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"


def _check_agreement(argv: list[str], text: str) -> str | None:
    """Re-check the agreements each command prints, and that the output is
    as long as it says it is."""
    cmd = argv[0]
    as_json = "json" in argv
    doc = json.loads(text) if as_json else None
    rows = [] if as_json else [line.split("\t") for line in text.splitlines()]
    if cmd == "max-weights":
        if as_json:
            ok = doc["count"] == len(doc["weights"]) > 0
        else:
            ok = rows[0] == ["m"] and rows[-1][0] == "count" and int(rows[-1][1]) == len(rows) - 2 > 0
        return None if ok else "weight count does not match the weights listed"
    if cmd == "count":
        if as_json:
            count, formula, agree = doc["count"], doc["formula"], doc["agree"]
        else:
            _, _, _, count, formula, agree = rows[1]
            count = int(count)
            formula = int(formula) if formula else None
            agree = {"true": True, "false": False, "": None}[agree]
        if formula is None:
            ok = agree is None
        else:
            ok = agree is True and count == formula
        return None if ok else "count disagrees with the formula"
    if cmd == "multiplicity":
        if as_json:
            values = list(doc["values"].values())
            ok = doc["agree"] is True
        else:
            values = [row[3] for row in rows[1:]]
            ok = True
        ok = ok and len(values) == (3 if "--check-all" in argv else 1) and len(set(values)) == 1
        return None if ok else "multiplicity backends disagree"
    if cmd == "verify":
        if as_json:
            agrees = [row["agree"] for row in doc["rows"]]
        else:
            agrees = [{"true": True, "false": False}[row[-1]] for row in rows[1:]]
        return None if agrees and all(agrees) else "verify grid has a disagreeing cell"
    if cmd == "table":
        n_rows = len(doc["rows"]) if as_json else len(rows) - 1
        ell_max = int(argv[argv.index("--ell-max") + 1])
        return None if n_rows == ell_max else "table has the wrong number of rows"
    return None if text.strip() else "empty output"
