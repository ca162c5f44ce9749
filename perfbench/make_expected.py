"""Build, cross-check and compare the expected-answer tables in ``expected/``.

    python3 perfbench/make_expected.py            # compare with the committed tables
    python3 perfbench/make_expected.py --write    # regenerate them

Runs every job of every workload once through the library in ``src/`` and
records its exit code, stdout and written-file digest, plus its wall time as
the reference cost the benchmark ranks jobs by.  Before anything is written
or compared, the answers are cross-checked with identities that do not run
the code under test (see ``identities.py``) and with the README examples.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from harness import Runner, expected_entry, mutate, sha256
from identities import parse_expansion, polynomial_at_ones, ssht_count, ssyt_count, tableau_weight
from population import JOBS, WORKLOADS, verify_setup
from run import BENCH, import_cli

README = [  # a job id fragment and what README.md says about that command
    ("expand --gamma 3,1", lambda o: o.stdout == "s[3,1] + s[2,2] + s[2,1,1]\n"),
    ("product --gamma 3,1 --delta 2 --n 6", lambda o: o.stdout == "P[5,1] + 2*P[4,2] + P[3,2,1]\n"),
    ("enum ssht --shape 3,1 --n 3", lambda o: o.stdout.splitlines()[-1] == "24"),
    ("graph --model queer --shape 3,1 --n 3 ", lambda o: o.stdout.startswith("vertices: 24\n")),
    ("verify --input @in/queer-3,1-n3.json --axioms queer --mode exhaustive", lambda o: o.exit == 0),
    ("char --model shifted --shape 3,1 --n 3", lambda o: o.exit == 0),
]


def option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def shape_of(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def model_size(model: str, shape: tuple[int, ...], n: int) -> int:
    return ssyt_count(shape, n) if model == "young" else ssht_count(shape, n)


def check_graph(argv: list[str], outcome) -> list[str]:
    """A ``graph`` job of a tableau model: size, budget and file contents."""
    model, n = option(argv, "--model"), int(option(argv, "--n"))
    size = model_size(model, shape_of(option(argv, "--shape")), n)
    budget = option(argv, "--max-vertices")
    if budget is not None and size > int(budget):
        ok = outcome.exit == 4 and outcome.stdout == "" and outcome.file is None
        return [] if ok else [f"expected exit 4 on a budget of {budget} < {size}"]
    problems = []
    lines = outcome.stdout.splitlines()
    if outcome.exit != 0 or not lines or lines[0] != f"vertices: {size}":
        problems.append(f"expected exit 0 and {size} vertices")
    if model == "queer" and "components: 1" not in lines:
        problems.append("a queer crystal must be connected")
    text = (outcome.file or b"").decode()
    if option(argv, "--format") == "dot":
        labels = sum(1 for line in text.splitlines() if "[label=" in line and "->" not in line)
    else:
        labels = len(json.loads(text)["vertices"]) if text else -1
    if labels != size:
        problems.append(f"written file holds {labels} vertices, expected {size}")
    return problems


def check_build(results: list) -> list[str]:
    return [f"{job['id']}: {p}" for job, outcome in results for p in check_graph(job["argv"], outcome)]


def check_verify(results: list, steps: list) -> list[str]:
    """Model inputs have the right size; unmutated inputs verify ok; every
    mutant is flagged (exit 1, ``ok: false``) by at least one axiom family."""
    problems = []
    sizes = {}
    for step, outcome in steps:
        argv = step["argv"]
        vertices = len(json.loads(outcome.file)["vertices"]) if outcome.file else -1
        if option(argv, "--model") == "tensor":
            expected = sizes[option(argv, "--left")] * sizes[option(argv, "--right")]
        else:
            shape, n = shape_of(option(argv, "--shape")), int(option(argv, "--n"))
            expected = model_size(option(argv, "--model"), shape, n)
        sizes[step["out"]] = vertices
        if outcome.exit != 0 or vertices != expected:
            problems.append(f"setup {step['id']}: {vertices} vertices, expected {expected}")
    flagged: dict[str, bool] = {}
    for job, outcome in results:
        path = option(job["argv"], "--input")
        verdict = json.loads(outcome.stdout) if outcome.exit in (0, 1) else None
        if verdict is None or verdict["ok"] != (outcome.exit == 0):
            problems.append(f"{job['id']}: exit {outcome.exit} does not match the verdict")
        elif path in sizes and outcome.exit != 0:
            problems.append(f"{job['id']}: an unmutated crystal must verify ok")
        if path not in sizes:
            flagged[path] = flagged.get(path, False) or outcome.exit == 1
    problems += [f"mutant {path} is flagged by no axiom family" for path, hit in flagged.items() if not hit]
    return problems


def check_product(results: list) -> list[str]:
    """sum_lambda c_lambda |SSHT(lambda, m)| = |SSHT(gamma, m)| * |SSHT(delta, m)|."""
    problems = []
    for job, outcome in results:
        gamma, delta = shape_of(option(job["argv"], "--gamma")), shape_of(option(job["argv"], "--delta"))
        expansion = parse_expansion(outcome.stdout, "P")
        degree = sum(gamma) + sum(delta)
        if outcome.exit != 0 or any(sum(lam) != degree or c < 1 for lam, c in expansion.items()):
            problems.append(f"{job['id']}: terms outside the degree or non-positive")
        for m in (2, 3, 4):
            lhs = sum(c * ssht_count(lam, m) for lam, c in expansion.items())
            if lhs != ssht_count(gamma, m) * ssht_count(delta, m):
                problems.append(f"{job['id']}: character identity fails at m={m}")
    return problems


def expansion_identity(expansion: dict, gamma: tuple[int, ...], alphabets) -> bool:
    """sum_lambda c_lambda |SSYT(lambda, m)| = |SSHT(gamma, m)| for each m."""
    return all(
        sum(c * ssyt_count(lam, m) for lam, c in expansion.items()) == ssht_count(gamma, m)
        for m in alphabets
    )


def check_expand(results: list) -> list[str]:
    problems = []
    for job, outcome in results:
        argv = job["argv"]
        lines = outcome.stdout.splitlines()
        if outcome.exit != 0:
            problems.append(f"{job['id']}: exit {outcome.exit}")
            continue
        if argv[0] == "expand":
            gamma = shape_of(option(argv, "--gamma"))
            ok = expansion_identity(parse_expansion(outcome.stdout, "s"), gamma, range(1, 5))
        elif argv[0] == "char":
            shape, m = shape_of(option(argv, "--shape")), int(option(argv, "--n"))
            count = ssyt_count if option(argv, "--model") == "young" else ssht_count
            ok = polynomial_at_ones(outcome.stdout) == count(shape, m)
        else:
            kind, shape, m = argv[1], shape_of(option(argv, "--shape")), int(option(argv, "--n"))
            tableaux = lines[:-1]
            ok = lines[-1] == str(len(tableaux)) and len(set(tableaux)) == len(tableaux)
            if kind == "yam":
                expansion: dict = {}
                for text in tableaux:
                    weight = tableau_weight(text)
                    expansion[weight] = expansion.get(weight, 0) + 1
                ok = ok and expansion_identity(expansion, shape, range(1, min(m, 4) + 1))
            else:
                ok = ok and len(tableaux) == (ssyt_count if kind == "ssyt" else ssht_count)(shape, m)
        if not ok:
            problems.append(f"{job['id']}: answer fails its identity")
    return problems


def check_readme(results: dict[str, list]) -> list[str]:
    rows = [(job["id"], outcome) for jobs in results.values() for job, outcome in jobs]
    problems = []
    for fragment, holds in README:
        matches = [outcome for job_id, outcome in rows if job_id.startswith(fragment)]
        if len(matches) != 1 or not holds(matches[0]):
            problems.append(f"README example {fragment!r} missing or different")
    return problems


def generate(cli, workload: str, workdir: Path) -> tuple[dict, list, list]:
    """Run the whole population once; return the table, the job results and
    the set-up results."""
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "run").mkdir(parents=True)
    (workdir / "inputs").mkdir()
    runner = Runner(cli, workdir / "run", workdir / "inputs", [])
    table: dict = {"workload": workload}
    steps = []
    if workload == "verify":
        setup, mutants = verify_setup()
        for step in setup:
            outcome = runner.run(step)
            steps.append((step, outcome))
        table["setup"] = [{**step, **expected_entry(outcome)} for step, outcome in steps]
        table["mutants"] = [{**m, "file_sha256": sha256(mutate(runner, m))} for m in mutants]
    results = []
    for job in JOBS[workload]():
        outcome = runner.run(job)
        results.append((job, outcome))
    table["jobs"] = [{**job, **expected_entry(outcome), "cost_ms": round(outcome.ms, 2)}
                     for job, outcome in results]
    return table, results, steps


def table_text(table: dict) -> str:
    """JSON with one line per job, set-up step and mutant, so diffs stay readable."""
    fields = []
    for key, value in table.items():
        if isinstance(value, list):
            rows = ",\n".join(f"  {json.dumps(row)}" for row in value)
            fields.append(f" {json.dumps(key)}: [\n{rows}\n ]")
        else:
            fields.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def answers(table: dict) -> dict:
    """Everything of a table except the reference costs."""
    return {**table, "jobs": [{k: v for k, v in job.items() if k != "cost_ms"} for job in table["jobs"]]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite expected/*.json")
    args = parser.parse_args()
    cli = import_cli()
    workdir = BENCH / "out" / "make-expected"
    results, problems = {}, []
    tables = {}
    try:
        for workload in WORKLOADS:
            table, rows, steps = generate(cli, workload, workdir)
            tables[workload], results[workload] = table, rows
            if workload == "verify":
                problems += check_verify(rows, steps)
            else:
                checks = {"build": check_build, "product": check_product, "expand": check_expand}
                problems += checks[workload](rows)
            failed = [job["id"] for job, outcome in rows if outcome.error]
            problems += [f"{job_id}: raised an exception" for job_id in failed]
            print(f"{workload}: {len(rows)} jobs, {sum(o.ms for _, o in rows) / 1000:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += check_readme(results)
    for problem in problems:
        print(f"cross-check: {problem}")
    if problems:
        return 1
    for workload, table in tables.items():
        path = BENCH / "expected" / f"{workload}.json"
        if args.write:
            path.parent.mkdir(exist_ok=True)
            path.write_text(table_text(table), encoding="utf-8")
        elif answers(json.loads(path.read_text(encoding="utf-8"))) != answers(table):
            print(f"{path.name}: answers differ from the committed table")
            problems.append(workload)
    print("cross-checks passed" + ("" if problems else "; tables " + ("written" if args.write else "match")))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
