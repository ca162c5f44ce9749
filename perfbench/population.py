"""The job population of each workload, enumerated deterministically.

A job is one ``crystals`` command line.  ``@in/`` in an argument stands for
the run's input directory (verify graph files); ``out`` names the file the
job writes, relative to the run's ``--output-dir``.  ``keys`` name the input
units a job consumes, so a run can report how much input its jobs share.

``make_expected.py`` enumerates the populations here, runs every job once
and commits the answers together with the job list under ``expected/``; the
benchmark reads the population from there.
"""

from __future__ import annotations

import random

from identities import partitions, ssht_count, ssyt_count

WORKLOADS = ("build", "verify", "product", "expand")
AXIOMS = ("stembridge", "queer", "components01", "components02")
MODES = ("exhaustive", "fast")


def shape_text(shape: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in shape)


def job(argv: list[str], keys: list[str], out: str | None = None) -> dict:
    return {"id": " ".join(argv), "argv": argv, "out": out, "keys": keys}


def build_jobs() -> list[dict]:
    """``graph`` for the three tableau models, |shape| 3..7, n 3..5, >= 10 vertices.

    Jobs are ranked by answer size; every fourth writes DOT instead of JSON,
    and every tenth gets a vertex budget of half its answer size, so it must
    exit 4 without writing a file.
    """
    specs = []
    for model in ("young", "shifted", "queer"):
        strict = model != "young"
        count = ssht_count if strict else ssyt_count
        for k in range(3, 8):
            for shape in partitions(k, strict=strict):
                for n in range(3, 6):
                    if len(shape) <= n and (size := count(shape, n)) >= 10:
                        specs.append((size, model, shape, n))
    specs.sort()
    jobs = []
    for rank, (size, model, shape, n) in enumerate(specs):
        fmt = "dot" if rank % 4 == 1 else "json"
        budget = ["--max-vertices", str(size // 2)] if rank % 10 == 7 else []
        argv = budget + [
            "graph", "--model", model, "--shape", shape_text(shape), "--n", str(n),
            "--format", fmt, "--out", f"out.{fmt}",
        ]
        jobs.append(job(argv, [f"{model}:{shape_text(shape)}:{n}"], f"out.{fmt}"))
    return jobs


# Verify inputs: model crystals, queer tensor products, and their mutants.
_EVEN_BASES = [
    ("young", (3, 1), 3), ("young", (3, 2, 1), 4), ("young", (4, 2), 3),
    ("shifted", (3, 1), 3), ("shifted", (3, 2), 4), ("shifted", (4, 2, 1), 4),
]
_QUEER_BASES = [((3, 1), 3), ((2, 1), 4), ((3, 2), 4), ((4, 2, 1), 5)]
_TENSORS = [
    ((2,), (1,), 3), ((2, 1), (1,), 3), ((2,), (2,), 4), ((3,), (1,), 4),
    ((2, 1), (2,), 4),
]
_MUTANTS_PER_KIND = 2
_UNMUTATED = "queer-4,2,1-n5.json"  # 1,400 vertices: verified unmutated only


def _model_file(model: str, shape: tuple[int, ...], n: int) -> str:
    return f"{model}-{shape_text(shape)}-n{n}.json"


def verify_setup() -> tuple[list[dict], list[dict]]:
    """Set-up steps that write the verify inputs, and the mutant specs.

    Mutants delete one edge or add one to one weight coordinate of a queer
    crystal or tensor product (all but the largest crystal).  Positions are
    fractions of the edge or vertex list, drawn from a fixed generator so the
    population never changes.
    """
    steps: list[dict] = []
    written: set[str] = set()

    def model_step(model: str, shape: tuple[int, ...], n: int) -> str:
        name = _model_file(model, shape, n)
        if name not in written:
            written.add(name)
            argv = ["graph", "--model", model, "--shape", shape_text(shape),
                    "--n", str(n), "--out", f"@in/{name}"]
            steps.append(job(argv, [name], f"@in/{name}"))
        return name

    for model, shape, n in _EVEN_BASES:
        model_step(model, shape, n)
    queer_files = [(model_step("queer", shape, n), n) for shape, n in _QUEER_BASES]
    for left, right, n in _TENSORS:
        a = model_step("queer", left, n)
        b = model_step("queer", right, n)
        name = f"tensor-{shape_text(left)}x{shape_text(right)}-n{n}.json"
        argv = ["graph", "--model", "tensor", "--left", f"@in/{a}", "--right",
                f"@in/{b}", "--queer", "--out", f"@in/{name}"]
        written.add(name)
        steps.append(job(argv, [name], f"@in/{name}"))
        queer_files.append((name, n))

    mutants = []
    for name, n in queer_files:
        if name == _UNMUTATED:
            continue
        rng = random.Random(f"mutant:{name}")
        for kind in ("delete-edge", "bump-weight"):
            for k in range(_MUTANTS_PER_KIND):
                mutants.append({
                    "file": f"@in/{name[:-5]}.{kind}{k}.json",
                    "base": f"@in/{name}",
                    "kind": kind,
                    "at": rng.random(),
                    "coordinate": rng.randrange(n),
                })
    return steps, mutants


def verify_jobs() -> list[dict]:
    """``verify`` over every input: even models with the even axioms, queer
    crystals, tensors and mutants with all four families; both modes."""
    steps, mutants = verify_setup()
    even = {f"@in/{_model_file(*base)}" for base in _EVEN_BASES}
    jobs = []
    for path in [step["out"] for step in steps] + [m["file"] for m in mutants]:
        for axioms in ("stembridge",) if path in even else AXIOMS:
            for mode in MODES:
                argv = ["verify", "--input", path, "--axioms", axioms, "--mode", mode]
                jobs.append(job(argv, [f"{path}:{axioms}:{mode}"]))
    return jobs


def product_jobs() -> list[dict]:
    """``product`` on strict pairs with |gamma| + |delta| <= 6, n = |gamma| + |delta|.

    All pairs with both sides of size >= 2, plus the delta = (1) pairs of
    total size 5 and 6, where building the factor graphs dominates.
    """
    jobs = []
    for total in range(4, 7):
        for a in range(1, total):
            for gamma in partitions(a, strict=True):
                for delta in partitions(total - a, strict=True):
                    if (a >= 2 and total - a >= 2) or (delta == (1,) and total >= 5):
                        argv = ["product", "--gamma", shape_text(gamma), "--delta",
                                shape_text(delta), "--n", str(total)]
                        keys = [f"queer:{shape_text(s)}:{total}" for s in (gamma, delta)]
                        jobs.append(job(argv, keys))
    return jobs


def expand_jobs() -> list[dict]:
    """``expand`` for strict |gamma| <= 9, plus small ``char`` and ``enum`` jobs."""
    jobs = []
    for k in range(1, 10):
        for gamma in partitions(k, strict=True):
            jobs.append(job(["expand", "--gamma", shape_text(gamma)], [f"expand:{shape_text(gamma)}"]))
    families = [
        (["char", "--model", "shifted"], True, range(2, 6), (2, 3, 4)),
        (["char", "--model", "young"], False, range(2, 6), (2, 3, 4)),
        (["enum", "ssht"], True, range(2, 6), (2, 3)),
        (["enum", "ssyt"], False, range(2, 5), (2, 3)),
        (["enum", "yam"], True, range(2, 7), (3, 4)),
    ]
    for head, strict, sizes, alphabets in families:
        for k in sizes:
            for shape in partitions(k, strict=strict):
                for m in alphabets:
                    if len(shape) <= m:
                        argv = head + ["--shape", shape_text(shape), "--n", str(m)]
                        jobs.append(job(argv, [" ".join(argv)]))
    return jobs


JOBS = {
    "build": build_jobs,
    "verify": verify_jobs,
    "product": product_jobs,
    "expand": expand_jobs,
}
