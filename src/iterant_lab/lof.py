"""Parser and reducer for the calculus of indications.

An expression is a forest of marks; a mark may contain another expression.
Two rewrite rules drive reduction:

* calling:  two sibling empty marks condense to one;
* crossing: a mark containing exactly one empty mark (and nothing else)
  vanishes.

Every variable-free expression reduces to the marked state (one empty mark)
or the unmarked state (nothing), independently of rule order; the seeded
random prober exercises that order-independence.  Letters extend the grammar
to the primary algebra, where juxtaposition reads as OR and enclosure as NOT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Union

Node = Union["Mark", "Var"]


@dataclass(frozen=True)
class Mark:
    children: tuple[Node, ...] = ()


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class MarkExpr:
    """A forest of marks/variables; equality is order-insensitive at every level."""

    items: tuple[Node, ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkExpr):
            return NotImplemented
        return _forest_key(self.items) == _forest_key(other.items)

    def __hash__(self) -> int:
        return hash(_forest_key(self.items))

    def is_empty(self) -> bool:
        return not self.items

    def is_single_empty_mark(self) -> bool:
        return (
            len(self.items) == 1
            and isinstance(self.items[0], Mark)
            and not self.items[0].children
        )

    def mark_count(self) -> int:
        return sum(_count_marks(node) for node in self.items)

    def depth(self) -> int:
        return max((_depth(node) for node in self.items), default=0)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for node in self.items:
            _collect_vars(node, out)
        return out

    def __str__(self) -> str:
        return unparse(self)


def _count_marks(node: Node) -> int:
    if isinstance(node, Var):
        return 0
    return 1 + sum(_count_marks(c) for c in node.children)


def _depth(node: Node) -> int:
    if isinstance(node, Var):
        return 0
    return 1 + max((_depth(c) for c in node.children), default=0)


def _collect_vars(node: Node, out: set[str]) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    else:
        for c in node.children:
            _collect_vars(c, out)


def _node_key(node: Node):
    if isinstance(node, Var):
        return ("v", node.name)
    return ("m", _forest_key(node.children))


def _forest_key(items: Iterable[Node]):
    return tuple(sorted((_node_key(n) for n in items), key=repr))


class MarkParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse(text: str) -> MarkExpr:
    """Grammar: expr := term*; term := '(' expr ')' | '*' | letter.

    '*' stands for the empty expression and may appear anywhere; whitespace
    is ignored.
    """
    stack: list[list[Node]] = [[]]
    opens: list[int] = []
    for pos, ch in enumerate(text):
        if ch.isspace() or ch == "*":
            continue
        if ch == "(":
            stack.append([])
            opens.append(pos)
        elif ch == ")":
            if len(stack) == 1:
                raise MarkParseError("unbalanced ')'", pos)
            children = stack.pop()
            opens.pop()
            stack[-1].append(Mark(tuple(children)))
        elif ch.isalpha():
            stack[-1].append(Var(ch))
        else:
            raise MarkParseError(f"unexpected character {ch!r}", pos)
    if len(stack) != 1:
        raise MarkParseError("unbalanced '('", opens[-1])
    return MarkExpr(tuple(stack[0]))


def unparse(expr: MarkExpr) -> str:
    def render(node: Node) -> str:
        if isinstance(node, Var):
            return node.name
        return "(" + "".join(render(c) for c in node.children) + ")"

    return "".join(render(n) for n in expr.items) if expr.items else "*"


@dataclass(frozen=True)
class ReductionStep:
    rule: str  # "calling" | "crossing"
    location: tuple[int, ...]  # child-index path to the rewritten sibling list
    before: str
    after: str


@dataclass(frozen=True)
class ReductionResult:
    value: str  # "marked" | "unmarked"
    trace: tuple[ReductionStep, ...]


@dataclass(frozen=True)
class _Redex:
    rule: str
    path: tuple[int, ...]  # path to the containing sibling list
    indices: tuple[int, ...]  # positions inside that list


def _forest_at(items: tuple[Node, ...], path: tuple[int, ...]) -> tuple[Node, ...]:
    for idx in path:
        node = items[idx]
        assert isinstance(node, Mark)
        items = node.children
    return items


def _replace_at(
    items: tuple[Node, ...], path: tuple[int, ...], new_children: tuple[Node, ...]
) -> tuple[Node, ...]:
    if not path:
        return new_children
    idx = path[0]
    node = items[idx]
    assert isinstance(node, Mark)
    replaced = Mark(_replace_at(node.children, path[1:], new_children))
    return items[:idx] + (replaced,) + items[idx + 1 :]


def _find_redexes(items: tuple[Node, ...], path: tuple[int, ...] = ()) -> list[_Redex]:
    """All applicable rewrites anywhere in the forest.

    calling targets a pair of empty-mark siblings; crossing targets a mark
    whose children are exactly one empty mark.
    """
    out: list[_Redex] = []
    empties = [
        i for i, n in enumerate(items) if isinstance(n, Mark) and not n.children
    ]
    for a in range(len(empties)):
        for b in range(a + 1, len(empties)):
            out.append(_Redex("calling", path, (empties[a], empties[b])))
    for i, node in enumerate(items):
        if not isinstance(node, Mark):
            continue
        inner = MarkExpr(node.children)
        if inner.is_single_empty_mark():
            out.append(_Redex("crossing", path, (i,)))
        out.extend(_find_redexes(node.children, path + (i,)))
    return out


def _apply_redex(items: tuple[Node, ...], redex: _Redex) -> tuple[Node, ...]:
    siblings = list(_forest_at(items, redex.path))
    if redex.rule == "calling":
        _, drop = redex.indices
        del siblings[drop]
    else:
        del siblings[redex.indices[0]]
    return _replace_at(items, redex.path, tuple(siblings))


def _terminal_value(expr: MarkExpr) -> str | None:
    if expr.is_empty():
        return "unmarked"
    if expr.is_single_empty_mark():
        return "marked"
    return None


def _deepest_redex(items: tuple[Node, ...]) -> _Redex:
    redexes = _find_redexes(items)
    if not redexes:
        raise AssertionError("non-terminal expression without a redex")
    return max(redexes, key=lambda r: len(r.path))


def reduce_expression(expr: MarkExpr) -> ReductionResult:
    """Deepest-first reduction to marked/unmarked, with a step-by-step trace."""
    if expr.variables():
        raise ValueError("cannot reduce an expression containing variables")
    items = expr.items
    trace: list[ReductionStep] = []
    while True:
        current = MarkExpr(items)
        value = _terminal_value(current)
        if value is not None:
            return ReductionResult(value, tuple(trace))
        redex = _deepest_redex(items)
        before = unparse(current)
        next_items = _apply_redex(items, redex)
        after_expr = MarkExpr(next_items)
        if after_expr.mark_count() >= current.mark_count():
            raise AssertionError("reduction step failed to shrink the expression")
        trace.append(
            ReductionStep(redex.rule, redex.path, before, unparse(after_expr))
        )
        items = next_items


@dataclass(frozen=True)
class ConfluenceReport:
    trials: int
    reference_value: str
    values_seen: tuple[str, ...]
    all_agree: bool


def confluence_probe(expr: MarkExpr, trials: int, seed: int) -> ConfluenceReport:
    """Reduce with rules applied in seeded-random order; all runs must land on
    the same terminal value as the deterministic reducer."""
    reference = reduce_expression(expr).value
    rng = random.Random(seed)
    seen = set()
    for _ in range(trials):
        items = expr.items
        while _terminal_value(MarkExpr(items)) is None:
            redexes = _find_redexes(items)
            items = _apply_redex(items, rng.choice(redexes))
        seen.add(_terminal_value(MarkExpr(items)))
    values = tuple(sorted(seen))
    return ConfluenceReport(trials, reference, values, values == (reference,))


def confluence_fuzz(count: int, max_depth: int, orders: int, seed: int) -> int:
    """Probe count seeded random expressions, each in the given number of random
    rule orders; return how many reached a value other than the reference."""
    rng = random.Random(seed)
    disagreements = 0
    for _ in range(count):
        expr = random_expression(rng, max_depth=max_depth)
        if not confluence_probe(expr, trials=orders, seed=rng.randrange(1 << 30)).all_agree:
            disagreements += 1
    return disagreements


def random_expression(rng: random.Random, max_depth: int = 6, max_width: int = 4) -> MarkExpr:
    def build(depth: int) -> Node:
        if depth >= max_depth or rng.random() < 0.3:
            return Mark(())
        width = rng.randint(0, max_width)
        return Mark(tuple(build(depth + 1) for _ in range(width)))

    top = rng.randint(0, max_width)
    return MarkExpr(tuple(build(1) for _ in range(top)))


# ---------------------------------------------------------------------------
# Logic bridge: marked = true, unmarked = false, enclosure = NOT,
# juxtaposition = OR.


def eval_logic(expr: MarkExpr, assignment: dict[str, bool]) -> bool:
    unbound = expr.variables() - set(assignment)
    if unbound:
        raise ValueError(f"unbound variable(s): {', '.join(sorted(unbound))}")

    def eval_forest(items: tuple[Node, ...]) -> bool:
        return any(eval_node(n) for n in items)

    def eval_node(node: Node) -> bool:
        if isinstance(node, Var):
            return assignment[node.name]
        return not eval_forest(node.children)

    return eval_forest(expr.items)


def translate(expr: MarkExpr) -> str:
    """Render as a conventional formula (T, F, ~, |, &)."""

    def trans_forest(items: tuple[Node, ...]) -> str:
        if not items:
            return "F"
        parts = [trans_node(n) for n in items]
        return parts[0] if len(parts) == 1 else "(" + " | ".join(parts) + ")"

    def trans_node(node: Node) -> str:
        if isinstance(node, Var):
            return node.name
        inner = node.children
        if not inner:
            return "T"
        if len(inner) == 1 and isinstance(inner[0], Mark):
            # double enclosure ((X)) collapses to X
            return trans_forest(inner[0].children)
        if len(inner) >= 2 and all(isinstance(c, Mark) for c in inner):
            parts = [trans_forest(c.children) for c in inner]  # type: ignore[union-attr]
            return "(" + " & ".join(parts) + ")"
        return "~" + trans_forest(inner)

    return trans_forest(expr.items)


def majorana_pair_bridge():
    """The order-two generator pair behind the re-entrant mark: the polarity
    [1,-1] and the shift, which square to one and anticommute."""
    from .iterants import polarity_element, shift_element

    e = polarity_element(first=1)
    eta = shift_element()
    one = e.algebra.one()
    return {
        "polarity": e,
        "shift": eta,
        "polarity_squared_one": e * e == one,
        "shift_squared_one": eta * eta == one,
        "anticommute": (e * eta + eta * e).is_zero(),
        "product_squares_to_minus_one": (e * eta) ** 2 == -one,
    }
