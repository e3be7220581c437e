"""Parser and reducer for the calculus of indications.

An expression is a forest of marks; a mark may contain another expression.
Two rewrite rules drive reduction:

* calling:  two sibling empty marks condense to one;
* crossing: a mark containing exactly one empty mark (and nothing else)
  vanishes.

Every variable-free expression reduces to the marked state (one empty mark)
or the unmarked state (nothing), independently of rule order.  That value is
the linear rule of ``eval_logic``: a mark is marked iff none of its contents
is.  One rewrite loop applies the rules; the deterministic reducer and the
seeded random prober differ only in how they pick the next redex, and the
prober checks each run against the linear value.  Letters extend the grammar
to the primary algebra, where juxtaposition reads as OR and enclosure as NOT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Union

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


Redex = tuple[str, tuple[int, ...], int]  # (rule, path to the sibling list, index)


def _is_empty_mark(node: Node) -> bool:
    return isinstance(node, Mark) and not node.children


def _redexes(items: tuple[Node, ...], path: tuple[int, ...] = ()) -> list[Redex]:
    """Every distinct rewrite once, visiting sibling lists in preorder.

    Any two empty siblings condense to the same forest, so a list offers one
    calling, which drops its second empty mark; then come its crossings by
    index, each dropping a mark whose children are exactly one empty mark.
    """
    empties = [i for i, node in enumerate(items) if _is_empty_mark(node)]
    out: list[Redex] = [("calling", path, empties[1])] if len(empties) > 1 else []
    marks = [(i, node) for i, node in enumerate(items) if isinstance(node, Mark)]
    out += [
        ("crossing", path, i)
        for i, node in marks
        if len(node.children) == 1 and _is_empty_mark(node.children[0])
    ]
    for i, node in marks:
        out += _redexes(node.children, path + (i,))
    return out


def _drop(items: tuple[Node, ...], path: tuple[int, ...], index: int) -> tuple[Node, ...]:
    """The forest with the node at index of the sibling list at path removed."""
    if not path:
        return items[:index] + items[index + 1 :]
    head = path[0]
    inner = Mark(_drop(items[head].children, path[1:], index))  # type: ignore[union-attr]
    return items[:head] + (inner,) + items[head + 1 :]


def _rewrite(
    expr: MarkExpr,
    pick: Callable[[list[Redex]], Redex],
    record: Callable[[str, tuple[int, ...], MarkExpr, MarkExpr], None] = lambda *step: None,
) -> str:
    """The one rewrite loop: apply the redex that pick chooses until none is
    left, hand each step to record, and read the value off the normal form,
    which must be one empty mark or nothing."""
    if expr.variables():
        raise ValueError("cannot reduce an expression containing variables")
    items, count = expr.items, expr.mark_count()
    while redexes := _redexes(items):
        rule, path, index = pick(redexes)
        after = MarkExpr(_drop(items, path, index))
        if (shrunk := after.mark_count()) >= count:
            raise AssertionError("reduction step failed to shrink the expression")
        record(rule, path, MarkExpr(items), after)
        items, count = after.items, shrunk
    if items not in ((), (Mark(),)):
        raise AssertionError("non-terminal expression without a redex")
    return "marked" if items else "unmarked"


def _first_deepest(redexes: list[Redex]) -> Redex:
    return max(redexes, key=lambda redex: len(redex[1]))


def reduce_expression(expr: MarkExpr) -> ReductionResult:
    """Deepest-first reduction to marked/unmarked, with a step-by-step trace."""
    trace: list[ReductionStep] = []

    def record(rule: str, path: tuple[int, ...], before: MarkExpr, after: MarkExpr) -> None:
        trace.append(ReductionStep(rule, path, unparse(before), unparse(after)))

    value = _rewrite(expr, _first_deepest, record)
    return ReductionResult(value, tuple(trace))


@dataclass(frozen=True)
class ConfluenceReport:
    trials: int
    reference_value: str
    values_seen: tuple[str, ...]
    all_agree: bool


def confluence_probe(expr: MarkExpr, trials: int, seed: int) -> ConfluenceReport:
    """Reduce with rules applied in seeded-random order; all runs must land on
    the linear value of the expression."""
    rng = random.Random(seed)
    values = tuple(sorted({_rewrite(expr, rng.choice) for _ in range(trials)}))
    reference = "marked" if eval_logic(expr, {}) else "unmarked"
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
