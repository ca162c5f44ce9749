"""Command-line surface: enumeration, graph building, verification, expansion.

Exit codes: 0 success, 1 verification found violations, 2 invalid input
(shape, parse, truncation risk, or an option its model does not
read), 3 I/O failure, 4 vertex budget exceeded.  Counts and summaries go to
stdout, diagnostics to stderr, machine-readable output is JSON, and every
file written ends with a newline.  :func:`main` checks the global options
into one :class:`Config` before any command runs, so a bad one exits 2 for
every command.  ``--threads`` must be positive but changes nothing.  Models,
checker families and enumeration kinds are the keys of the tables below, which
are the parser's choices; ``graph`` and ``char`` go through :func:`_model`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from .axioms import (
    Verdict,
    check_01_components,
    check_02_components,
    check_queer_regular,
    check_stembridge,
)
from .config import Config
from .errors import (
    ClosureBudgetExceeded,
    CrystalError,
    IndexOutOfRange,
    ParseError,
)
from .graph import (
    CrystalGraph,
    character,
    _component_groups,
    _dot_chunks,
    _json_chunks,
    highest_weights,
    import_json,
    tensor_graphs,
)
from .models import (
    _check_queer_alphabet,
    queer_graph,
    queer_standard_graph,
    shifted_graph,
    young_graph,
)
from .shifted import enumerate_yamanouchi, lower, raise_
from .symfunc import product_expand, render_expansion, schur, schur_p, schur_p_to_schur
from .tableaux import (
    _check_alphabet,
    enumerate_ssht,
    enumerate_ssyt,
    parse_shifted,
    parse_young,
    render_tableau,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def parse_shape(text: str) -> tuple[int, ...]:
    """Parse a comma-separated weakly descending shape like ``"3,1"``.

    Raises:
        ParseError: empty, non-ASCII-integer, too long, non-positive, or increasing input.
    """
    try:  # ASCII digits only: str.isdigit also takes "²" and "٣"
        values = [int(p) if p.isascii() and p.strip().isdigit() else 0 for p in text.split(",")]
    except ValueError:  # a part past Python's digit limit
        values = [0]
    if min(values) < 1:
        raise ParseError(f"shape parts must be positive integers, got {text!r}")
    if any(a < b for a, b in zip(values, values[1:])):
        raise ParseError(f"shape must be descending, got {text!r}")
    return tuple(values)


def _config(args: argparse.Namespace) -> Config:
    kwargs = {}
    if args.max_vertices is not None:
        kwargs["max_vertices"] = args.max_vertices
    if args.output_dir is not None:
        kwargs["output_dir"] = Path(args.output_dir)
    config = Config(**kwargs)
    if args.threads is not None and args.threads < 1:
        raise ParseError(f"threads must be positive, got {args.threads}")
    return config


def _out_path(config: Config, out: str) -> Path:
    path = Path(out)
    if not path.is_absolute():
        path = config.output_dir / path
    return path


def _format_weight(weight: tuple[int, ...]) -> str:
    return "(" + ",".join(str(w) for w in weight) + ")"


_ENUMERATIONS = {"ssyt": enumerate_ssyt, "ssht": enumerate_ssht, "yam": enumerate_yamanouchi}


def cmd_enum(args: argparse.Namespace, config: Config) -> int:
    shape = parse_shape(args.shape)
    tableaux = _ENUMERATIONS[args.kind](shape, args.n, limit=config.max_vertices)
    lines = "".join(render_tableau(t) + "\n" for t in tableaux)
    if args.out:
        _out_path(config, args.out).write_text(lines, encoding="utf-8")
    else:
        sys.stdout.write(lines)
    print(len(tableaux))
    return EXIT_OK


def _load_graph(path: str, config: Config) -> CrystalGraph:
    return import_json(Path(path).read_text(encoding="utf-8"), config)


def _tensor(left: str, right: str, queer: bool, config: Config) -> CrystalGraph:
    return tensor_graphs(_load_graph(left, config), _load_graph(right, config), queer, config)


def _queer_character(shape: tuple[int, ...], n: int, config: Config):
    _check_queer_alphabet(n)
    return schur_p(shape, n, config)


# The options each model reads, in the order its entries below take them.
_READS = {
    "young": ("shape", "n"),
    "shifted": ("shape", "n"),
    "queer": ("shape", "n"),
    "standard": ("n",),
    "tensor": ("left", "right", "queer"),
}
_GRAPHS = {
    "young": young_graph,
    "shifted": shifted_graph,
    "queer": queer_graph,
    "standard": queer_standard_graph,
    "tensor": _tensor,
}
_CHARS = {
    "young": schur,
    "shifted": schur_p,
    "queer": _queer_character,
    "standard": lambda n, config: character(queer_standard_graph(n, config)),
}
# The options of each model command that a model may leave unread; char
# requires --n itself.
_MODEL_OPTIONS = {"graph": ("shape", "n", "left", "right", "queer"), "char": ("shape",)}


def _model(table: dict[str, Callable], args: argparse.Namespace, config: Config):
    """``table``'s entry for ``args.model``, called on the options the model
    reads; ParseError for an option it does not read, a missing one it needs
    (naming all it needs) or a bad shape, in that order."""
    reads, options = _READS[args.model], _MODEL_OPTIONS[args.command]
    for option in options:
        value = getattr(args, option)  # --n 0 counts as given, as 0 == False
        if option not in reads and value is not None and value is not False:
            raise ParseError(f"{args.model} model does not read --{option}")
    # A flag is never missing, and an empty graph file name is.
    needs = [o for o in reads if o in options and not isinstance(getattr(args, o), bool)]
    files = [o for o in needs if o in ("left", "right")]
    if any(getattr(args, o) is None for o in needs) or not all(getattr(args, o) for o in files):
        raise ParseError(
            f"{args.model} model needs " + " and ".join(f"--{o}" for o in needs)
            + (" graph files" if files else "")
        )
    values = [parse_shape(args.shape) if o == "shape" else getattr(args, o) for o in reads]
    return table[args.model](*values, config)


def cmd_graph(args: argparse.Namespace, config: Config) -> int:
    graph = _model(_GRAPHS, args, config)
    chunks = (_dot_chunks if args.format == "dot" else _json_chunks)(graph)
    with _out_path(config, args.out).open("w", encoding="utf-8") as out:
        out.writelines(chunks)
    counts = graph.edge_counts()
    print(f"vertices: {len(graph)}")
    print("edges:", " ".join(f"{color}:{count}" for color, count in counts.items()) or "none")
    print(f"components: {len(_component_groups(graph))}")
    weights = sorted(graph.weight_of(vid) for vid in highest_weights(graph))
    print("highest weights:", " ".join(_format_weight(w) for w in weights))
    return EXIT_OK


_CHECKERS: dict[str, Callable[..., Verdict]] = {
    "stembridge": check_stembridge,
    "queer": check_queer_regular,
    "components01": check_01_components,
    "components02": check_02_components,
}
_TAKES_MODE = {"stembridge": True, "queer": True, "components01": False, "components02": False}


def cmd_verify(args: argparse.Namespace, config: Config) -> int:
    graph = _load_graph(args.input, config)
    mode = {"exhaustive": args.mode == "exhaustive"} if _TAKES_MODE[args.axioms] else {}
    verdict = _CHECKERS[args.axioms](graph, **mode)
    print(json.dumps(verdict.to_dict(), indent=2))
    return EXIT_OK if verdict.ok else EXIT_VIOLATIONS


def cmd_expand(args: argparse.Namespace, config: Config) -> int:
    _check_alphabet(args.n)
    gamma = parse_shape(args.gamma)
    expansion = schur_p_to_schur(gamma, args.n, config)
    print(render_expansion(expansion, "s"))
    return EXIT_OK


def cmd_product(args: argparse.Namespace, config: Config) -> int:
    gamma = parse_shape(args.gamma)
    delta = parse_shape(args.delta)
    expansion = product_expand(gamma, delta, args.n, config)
    print(render_expansion(expansion, "P"))
    return EXIT_OK


def cmd_char(args: argparse.Namespace, config: Config) -> int:
    print(_model(_CHARS, args, config).render())
    return EXIT_OK


_PARSERS = {"ssyt": parse_young, "ssht": parse_shifted}


def cmd_string(args: argparse.Namespace, config: Config) -> int:
    _check_alphabet(args.n)
    if args.n is not None and args.i >= args.n:
        raise IndexOutOfRange(
            f"color {args.i} outside 1..{args.n - 1} for an alphabet of {args.n}"
        )
    top = _PARSERS[args.kind](args.tableau, args.n)
    while (above := raise_(top, args.i)) is not None:
        top = above
    while top is not None:
        print(render_tableau(top))
        top = lower(top, args.i)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystals",
        description="Tableau crystals: enumeration, graphs, verification.",
    )
    parser.add_argument(
        "--max-vertices",
        type=int,
        default=None,
        help="vertex budget for every command: graphs, graph files, "
        "enumerations, characters, expansions and products",
    )
    parser.add_argument(  # kept only because perfbench/run.py passes it
        "--threads",
        type=int,
        default=None,
        help="must be positive, but changes nothing (builds use one thread)",
    )
    parser.add_argument(
        "--output-dir", default=None, help="directory for relative output paths"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate tableaux, one per line")
    p.add_argument("kind", choices=_ENUMERATIONS, help="exit 4 past --max-vertices tableaux")
    p.add_argument("--shape", required=True, help='comma-separated, e.g. "3,1"')
    p.add_argument("--n", type=int, required=True, help="largest entry value")
    p.add_argument("--out", help="write tableaux here instead of stdout")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("graph", help="build a crystal graph file")
    p.add_argument("--model", required=True, choices=_GRAPHS)
    p.add_argument("--shape", help='comma-separated, e.g. "3,1"')
    p.add_argument("--n", type=int, help="alphabet size")
    p.add_argument("--left", help="left factor graph JSON (tensor model)")
    p.add_argument("--right", help="right factor graph JSON (tensor model)")
    p.add_argument(
        "--queer", action="store_true", help="include 0-edges in the tensor"
    )
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="check axioms on a graph JSON file")
    p.add_argument("--input", required=True, help="graph JSON file")
    p.add_argument("--axioms", required=True, choices=_CHECKERS)
    p.add_argument(
        "--mode", choices=("exhaustive", "fast"), default="exhaustive"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="expand a shifted-basis element")
    p.add_argument("--gamma", required=True, help='strict shape, e.g. "3,1"')
    p.add_argument(
        "--n", type=int, default=None, help="assert faithfulness in n variables"
    )
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("product", help="expand a product in the shifted basis")
    p.add_argument("--gamma", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("char", help="print a character polynomial")
    p.add_argument("--model", required=True, choices=_CHARS)
    p.add_argument("--shape", help="required except for the standard model")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("string", help="print the full i-string through a tableau")
    p.add_argument("--kind", choices=_PARSERS, default="ssht")
    p.add_argument("--tableau", required=True, help='e.g. "[[1,1,2\'],[2]]"')
    p.add_argument("--i", type=int, required=True, help="operator color (>= 1)")
    p.add_argument("--n", type=int, default=None, help="optional alphabet bound")
    p.set_defaults(func=cmd_string)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call in a process."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, _config(args))
    except ClosureBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CrystalError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
