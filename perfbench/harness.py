"""Run one ``crystals`` command line in-process and check its answer.

A job calls ``crystals.cli.main(argv)`` with stdout and stderr captured.
Files it writes go to the run's work directory and are read back after the
timed call.  Garbage is collected before each job, outside the timed call,
so no job pays for or shares memory with an earlier one, as with one
process per command.  The answer of a job is its exit code, its stdout and
the bytes of the file it wrote, compared with the committed expected-answer
table.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

INPUTS = "@in/"
STDOUT_TEXT_LIMIT = 400  # longer stdout is kept in the table as a digest


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Outcome:
    exit: int | None
    stdout: str
    file: bytes | None
    error: str | None
    ms: float

    def answer(self) -> tuple:
        """Everything a user sees, as digests: the unit of byte identity."""
        file_digest = None if self.file is None else sha256(self.file)
        return (self.exit, sha256(self.stdout.encode()), file_digest)


class Runner:
    """Runs jobs against one imported ``crystals.cli`` module.

    ``cli.main`` is looked up on every call, so wrappers installed by the
    tracer take effect without the runner knowing about them.
    """

    def __init__(self, cli: ModuleType, workdir: Path, inputs: Path, global_args: list[str]):
        self.cli = cli
        self.workdir = workdir
        self.inputs = inputs
        self.global_args = ["--output-dir", str(workdir), *global_args]

    def path(self, template: str) -> Path:
        if template.startswith(INPUTS):
            return self.inputs / template[len(INPUTS):]
        return self.workdir / template

    def argv(self, template: list[str]) -> list[str]:
        args = [str(self.path(a)) if a.startswith(INPUTS) else a for a in template]
        return self.global_args + args

    def run(self, job: dict) -> Outcome:
        argv = self.argv(job["argv"])
        out = self.path(job["out"]) if job["out"] else None
        if out is not None and out.exists():
            out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        code: int | None = None
        error = None
        gc.collect()
        start = time.perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the job failed; the benchmark keeps running
                error = traceback.format_exc(limit=4)
        ms = (time.perf_counter() - start) * 1000.0
        data = None
        if out is not None and out.exists():
            data = out.read_bytes()
            if not job["out"].startswith(INPUTS):
                out.unlink()
        return Outcome(code, stdout.getvalue(), data, error, ms)


def expected_entry(outcome: Outcome) -> dict:
    """The table entry recording ``outcome`` as the right answer."""
    entry: dict = {"exit": outcome.exit}
    if len(outcome.stdout) <= STDOUT_TEXT_LIMIT:
        entry["stdout"] = outcome.stdout
    else:
        entry["stdout_sha256"] = sha256(outcome.stdout.encode())
    entry["file_sha256"] = None if outcome.file is None else sha256(outcome.file)
    return entry


def mismatches(expected: dict, outcome: Outcome) -> list[str]:
    """Why ``outcome`` is not the expected answer; empty when it is."""
    if outcome.error is not None:
        return [f"exception: {outcome.error.strip().splitlines()[-1]}"]
    problems = []
    if outcome.exit != expected["exit"]:
        problems.append(f"exit {outcome.exit}, expected {expected['exit']}")
    if "stdout" in expected:
        if outcome.stdout != expected["stdout"]:
            problems.append(f"stdout {outcome.stdout[:80]!r}, expected {expected['stdout'][:80]!r}")
    elif sha256(outcome.stdout.encode()) != expected["stdout_sha256"]:
        problems.append("stdout digest differs")
    digest = None if outcome.file is None else sha256(outcome.file)
    if digest != expected["file_sha256"]:
        problems.append("written file differs" if digest else "no file written")
    return problems


def mutate(runner: Runner, mutant: dict) -> bytes:
    """Write one mutant graph file: a base file with one edge deleted or one
    weight coordinate raised by one.  Returns the bytes written."""
    data = json.loads(runner.path(mutant["base"]).read_text(encoding="utf-8"))
    if mutant["kind"] == "delete-edge":
        del data["edges"][int(mutant["at"] * len(data["edges"]))]
    else:
        vertex = data["vertices"][int(mutant["at"] * len(data["vertices"]))]
        vertex["weight"][mutant["coordinate"]] += 1
    text = (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode()
    runner.path(mutant["file"]).write_bytes(text)
    return text
