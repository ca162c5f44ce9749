"""The queer operator pair, and the reflections that carry it to odd positions.

On a shifted tableau the queer lowering move turns the rightmost ``1`` of the
bottom row into a ``2`` (on the main diagonal) or ``2'`` (off it); the raising
move inverts this.  Values ``1`` and ``2'`` only ever occur in the bottom row,
so the moves are two-sided inverses.  Both have one body on packed codes
(:func:`f0_codes`, :func:`e0_codes`).  A 0-string has at most two
elements, so its string lengths are just whether :func:`f0` and :func:`e0`
are defined.

On a graph, or on a lazy tensor view of two graphs, longer-range odd
operators are conjugates of the 0-move by walks along even strings: ``S_i``
reflects a vertex across its ``i``-string, words of reflections compose
right-to-left, and the ``k``-th odd lowering operator is the 0-move
conjugated by the ``k``-th reflection word (:func:`odd_word`).
:func:`queer_highest_weights` applies the raising conjugates.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import IndexOutOfRange, ShapeMismatch, StringTruncated
from .graph import CrystalGraph, Pair, TensorView
from .tableaux import ShiftedTableau, Tableau, geometry_of, pack, unpack, with_codes

VertexId = str | Pair
"""A vertex id of a :class:`CrystalGraph`, or a :class:`TensorView` pair of
factor rows."""


def f0(t: ShiftedTableau) -> ShiftedTableau | None:
    """Queer lowering move: rightmost ``1`` of row 1 becomes ``2``/``2'``.

    Undefined (``None``) when the tableau holds no ``1`` or already holds a
    ``2'``.  A Young tableau raises ``ShapeMismatch``.
    """
    return _move(f0_codes, t)


def e0(t: ShiftedTableau) -> ShiftedTableau | None:
    """Queer raising move: the ``2'``, or a leading diagonal ``2``, becomes ``1``.

    Undefined (``None``) when the tableau has no ``2'`` and the first cell of
    row 1 is not an unmarked ``2``.  A Young tableau raises ``ShapeMismatch``.
    """
    return _move(e0_codes, t)


def _move(body: Callable, t: Tableau) -> ShiftedTableau | None:
    if not isinstance(t, ShiftedTableau):  # a Young filling would come back invalid
        raise ShapeMismatch(f"the queer moves act on shifted tableaux, got a {type(t).__name__}")
    codes = body(pack(t))
    return None if codes is None else unpack(codes, geometry_of(t))


def f0_codes(codes: tuple[int, ...]) -> tuple[int, ...] | None:
    """:func:`f0` on packed codes; the ``1``s lead row 1, which leads ``codes``."""
    if 3 in codes:  # a 2'
        return None
    last = -1
    for cell, code in enumerate(codes):
        if code > 2:
            break
        last = cell
    if last < 0:
        return None
    return with_codes(codes, last, 4 if last == 0 else 3)


def e0_codes(codes: tuple[int, ...]) -> tuple[int, ...] | None:
    """:func:`e0` on packed codes."""
    if 3 in codes:
        return with_codes(codes, codes.index(3), 2)
    if codes and codes[0] == 4:
        return with_codes(codes, 0, 2)
    return None


# -- graph-level odd operators -------------------------------------------------

def weyl_s(graph: CrystalGraph | TensorView, vid: VertexId, i: int) -> VertexId:
    """Reflection ``S_i``: walk to the mirror vertex of the ``i``-string.

    With ``d = wt_i - wt_{i+1}``, applies the color-``i`` lowering move ``d``
    times when ``d >= 0`` and the raising move ``-d`` times otherwise.

    Raises:
        IndexOutOfRange: ``i`` is not a valid even color for this graph.
        StringTruncated: The walk needs an edge the graph does not contain.
    """
    if not 1 <= i <= graph.n - 1:
        raise IndexOutOfRange(
            f"reflection index {i} outside 1..{graph.n - 1}"
        )
    weight = graph.weight_of(vid)
    steps = weight[i - 1] - weight[i]
    cur = vid
    for _ in range(abs(steps)):
        nxt = graph.out_edge(cur, i) if steps >= 0 else graph.in_edge(cur, i)
        if nxt is None:
            raise StringTruncated(
                f"reflection S_{i} from {vid!r} ran off the graph at {cur!r}"
            )
        cur = nxt
    return cur


def apply_weyl_word(
    graph: CrystalGraph | TensorView, vid: VertexId, word: Sequence[int]
) -> VertexId:
    """Compose reflections; the rightmost letter of ``word`` acts first."""
    cur = vid
    for i in reversed(word):
        cur = weyl_s(graph, cur, i)
    return cur


def odd_word(k: int) -> tuple[int, ...]:
    """Reflection word conjugating the 0-move into the ``k``-th odd move."""
    if k < 1:
        raise IndexOutOfRange(f"odd index must be at least 1, got {k}")
    return tuple(range(2, k + 1)) + tuple(range(1, k))


def queer_highest_weights(graph: CrystalGraph | TensorView) -> list[VertexId]:
    """Vertices annihilated by every even and every odd raising operator.

    A vertex qualifies when it has no incoming even-colored edge and, for
    each ``k``, the ``k``-th reflection word sends it to a vertex with no
    incoming 0-edge.  The even candidates come from the graph's
    ``even_highest_weights``; on a :class:`TensorView` those are the even
    highest weights of the left factor paired with the right factor, and
    the result is a list of ``(left row, right row)`` pairs.

    Raises:
        StringTruncated: A reflection walk left the graph.
    """
    words = [odd_word(k) for k in range(1, graph.n)]
    return [vid for vid in graph.even_highest_weights() if _odd_highest(graph, vid, words)]


def _odd_highest(graph: CrystalGraph | TensorView, vid: VertexId, words: list) -> bool:
    """Whether each reflection word in ``words`` sends ``vid`` to a vertex with no
    incoming 0-edge: the odd half of :func:`queer_highest_weights`' test."""
    return all(graph.in_edge(apply_weyl_word(graph, vid, word), 0) is None for word in words)
