"""Parser and reducer for the calculus of indications.

An expression is a forest of marks; a mark may contain another expression.
``MarkExpr`` holds it as its text alone, "(" and ")" around each mark's
contents and a letter for each variable, and compares two texts as forests,
with every sibling list read as a multiset.  Two rewrite rules drive
reduction:

* calling:  two sibling empty marks condense to one;
* crossing: a mark containing exactly one empty mark (and nothing else)
  vanishes.

Every variable-free expression reduces to the marked state (one empty mark)
or the unmarked state (nothing), independently of rule order.  That value is
the linear rule of ``eval_logic``: a mark is marked iff none of its contents
is.  One rewrite loop applies the rules to a mutable copy of the forest and
keeps a worklist of the sibling lists that hold a redex, so each step looks
again at three lists, not at the whole forest.  The deterministic reducer and
the seeded random prober differ only in how they pick the next redex, and the
prober hands back the values its runs reach beside the linear value, for the
caller to compare.  Every walk over a text keeps its own stack, so nesting
depth is bounded by memory, not by Python's recursion limit.  Letters extend
the grammar to the primary algebra, where juxtaposition reads as OR and
enclosure as NOT.  The order-two generator pair behind the re-entrant mark
builds no mark; its relations live with the other period-two code, in
``iterants.majorana_pair_relations``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .groups import MAX_LOF_MARKS


@dataclass(frozen=True)
class MarkExpr:
    """A forest of marks and variables held as its text: "(" and ")" around
    each mark's contents and each variable's one-letter name, with no
    whitespace and no '*'.  The text of a sibling list splits uniquely into
    the texts of its items, so the text is the token stream every walk reads.
    Equality is order-insensitive at every level.  parse checks a text."""

    text: str = ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkExpr):
            return NotImplemented
        return _forest_key(self.text) == _forest_key(other.text)

    def __hash__(self) -> int:
        return hash(_forest_key(self.text))

    def variables(self) -> set[str]:
        return set(self.text) - {"(", ")"}

    def __str__(self) -> str:
        return self.text or "*"


def _fold(text: str, var: Callable[[str], Any], mark: Callable[[list], Any]) -> list:
    """The values of a forest's items, bottom up: var gives a variable's value
    and mark a mark's value from the values of its contents.  An explicit
    stack replaces recursion, so no nesting depth is too deep."""
    stack: list[list] = [[]]
    for token in text:
        if token == "(":
            stack.append([])
        elif token == ")":
            inner = stack.pop()
            stack[-1].append(mark(inner))
        else:
            stack[-1].append(var(token))
    return stack[0]


def _forest_key(text: str) -> str:
    """The text of the forest with every sibling list sorted: equal keys are
    equal multisets at every level."""
    return "".join(sorted(_fold(text, str, lambda keys: "(" + "".join(sorted(keys)) + ")")))


class MarkParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse(text: str) -> MarkExpr:
    """Grammar: expr := term*; term := '(' expr ')' | '*' | letter.

    '*' stands for the empty expression and may appear anywhere; whitespace
    is ignored.  More than groups.MAX_LOF_MARKS marks is a ValueError.
    """
    marks = text.count("(")
    if marks > MAX_LOF_MARKS:
        raise ValueError(f"an expression of {marks} marks exceeds the cap of {MAX_LOF_MARKS}")
    kept: list[str] = []
    opens: list[int] = []
    for pos, ch in enumerate(text):
        if ch.isspace() or ch == "*":
            continue
        if ch == "(":
            opens.append(pos)
        elif ch == ")":
            if not opens:
                raise MarkParseError("unbalanced ')'", pos)
            opens.pop()
        elif not ch.isalpha():
            raise MarkParseError(f"unexpected character {ch!r}", pos)
        kept.append(ch)
    if opens:
        raise MarkParseError("unbalanced '('", opens[-1])
    return MarkExpr("".join(kept))


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


class _Node:
    """A mark of the forest under rewriting, or the root that owns the top list."""

    __slots__ = ("parent", "children", "depth", "order", "size")

    def __init__(self, parent: _Node | None, order: int):
        self.parent = parent
        self.children: list[_Node] = []
        self.depth = 0 if parent is None else parent.depth + 1
        self.order = order  # position in preorder
        self.size = 0 if parent is None else 1  # marks in the subtree


Redex = tuple[str, _Node]  # (rule, the node it drops)
_REMOVED_MARKS = {"calling": 1, "crossing": 2}


def _build(expr: MarkExpr) -> list[_Node]:
    """The forest as mutable nodes in preorder, the root first."""
    nodes = [_Node(None, 0)]
    open_nodes = [nodes[0]]
    for token in expr.text:
        if token == "(":
            node = _Node(open_nodes[-1], len(nodes))
            open_nodes[-1].children.append(node)
            nodes.append(node)
            open_nodes.append(node)
        elif token == ")":
            node = open_nodes.pop()
            open_nodes[-1].size += node.size
        else:
            raise ValueError("cannot reduce an expression containing variables")
    return nodes


def _list_redexes(owner: _Node) -> list[Redex]:
    """The rewrites of the sibling list that owner holds.

    Any two empty siblings condense to the same forest, so a list offers one
    calling, which drops its second empty mark; then come its crossings in
    order, each dropping a mark whose only content is one empty mark.
    """
    empties = [node for node in owner.children if not node.children]
    out: list[Redex] = [("calling", empties[1])] if len(empties) > 1 else []
    out += [("crossing", node) for node in owner.children
            if len(node.children) == 1 and not node.children[0].children]
    return out


class _Worklist:
    """The live map from each owner whose sibling list holds a redex to that
    list's redexes, and a heap of owners ordered deepest first, then by
    preorder."""

    def __init__(self, nodes: list[_Node]):
        self.nodes = nodes
        self.live: dict[_Node, list[Redex]] = {}
        self.heap: list[tuple[int, int]] = []
        for owner in nodes:
            self.examine(owner)

    def examine(self, owner: _Node) -> None:
        redexes = _list_redexes(owner)
        if not redexes:
            self.live.pop(owner, None)
            return
        if owner not in self.live:
            heapq.heappush(self.heap, (-owner.depth, owner.order))
        self.live[owner] = redexes

    def first_deepest(self) -> tuple[_Node, Redex]:
        """The first redex of the deepest live list, the first in preorder."""
        while (owner := self.nodes[self.heap[0][1]]) not in self.live:
            heapq.heappop(self.heap)
        return owner, self.live[owner][0]

    def random(self, rng: random.Random) -> tuple[_Node, Redex]:
        """A random redex of a random live list."""
        owner = rng.choice(list(self.live))
        return owner, rng.choice(self.live[owner])


def _locate(owner: _Node, index: int) -> tuple[tuple[int, ...], int]:
    """The child-index path from the root to owner's sibling list, and the
    offset in the forest's text of that list's item at index: an opening
    parenthesis for each enclosing mark and two characters for each mark of
    the siblings before it at every level."""
    path = []
    offset = 2 * sum(node.size for node in owner.children[:index])
    while (parent := owner.parent) is not None:
        position = parent.children.index(owner)
        path.append(position)
        if position:
            offset += 2 * sum(node.size for node in parent.children[:position])
        owner = parent
    return tuple(reversed(path)), offset + len(path)


def _rewrite(
    expr: MarkExpr,
    pick: Callable[[_Worklist], tuple[_Node, Redex]],
    record: Callable[[str, tuple[int, ...], str, str], None] | None = None,
) -> tuple[str, int]:
    """The one rewrite loop: apply the redex that pick chooses until none is
    left, hand each step's rule, location and before/after text to record, and
    return the value read off the normal form, which must be one empty mark or
    nothing, with the number of steps.  Without record no text is built.

    A rewrite in one sibling list can change the redexes of only three lists:
    that list, the list holding its owner (the owner may now be empty or hold
    one empty mark) and the list above (whose mark may now hold one empty
    mark).
    Those three are examined again; the rest of the worklist stands.
    """
    nodes = _build(expr)
    root, work = nodes[0], _Worklist(nodes)
    text = expr.text
    steps = 0
    while work.live:
        steps += 1
        owner, (rule, node) = pick(work)
        if node.size != _REMOVED_MARKS[rule]:
            raise AssertionError(f"a {rule} would remove {node.size} marks")
        index = owner.children.index(node)
        if record:
            path, offset = _locate(owner, index)
            after = text[:offset] + text[offset + 2 * node.size:]
            record(rule, path, text, after or "*")
            text = after
        del owner.children[index]
        ancestor: _Node | None = owner
        while ancestor is not None:
            ancestor.size -= node.size
            ancestor = ancestor.parent
        for _ in range(3):  # the rewritten list, its owner's list and the one above
            work.examine(owner)
            if (owner := owner.parent) is None:
                break
    top = root.children
    if len(top) > 1 or (top and top[0].children):
        raise AssertionError("non-terminal expression without a redex")
    return ("marked" if top else "unmarked"), steps


def reduce_expression(expr: MarkExpr) -> ReductionResult:
    """Deepest-first reduction to marked/unmarked, with a step-by-step trace."""
    trace: list[ReductionStep] = []

    def record(rule: str, path: tuple[int, ...], before: str, after: str) -> None:
        trace.append(ReductionStep(rule, path, before, after))

    value, _ = _rewrite(expr, _Worklist.first_deepest, record)
    return ReductionResult(value, tuple(trace))


def reduce_untraced(expr: MarkExpr) -> tuple[str, int]:
    """The value and the step count of the same reduction, with no step text."""
    return _rewrite(expr, _Worklist.first_deepest)


def confluence_probe(
    expr: MarkExpr, trials: int, seed: int
) -> tuple[tuple[str, ...], tuple[str]]:
    """The sorted values that trials reductions in seeded-random rule order
    reach, against the one-value tuple of the expression's linear value:
    confluence holds exactly when the two are equal."""
    rng = random.Random(seed)
    values = tuple(sorted({_rewrite(expr, lambda work: work.random(rng))[0]
                           for _ in range(trials)}))
    return values, ("marked" if eval_logic(expr, {}) else "unmarked",)


def fuzz_cases(count: int, max_depth: int, seed: int) -> Iterator[tuple[MarkExpr, int]]:
    """count seeded random expressions, each with the seed of its probe."""
    rng = random.Random(seed)
    for _ in range(count):
        expr = random_expression(rng, max_depth=max_depth)
        yield expr, rng.randrange(1 << 30)


def confluence_fuzz(count: int, max_depth: int, orders: int, seed: int) -> int:
    """Probe count seeded random expressions, each in the given number of random
    rule orders; return how many reached a value other than the reference."""
    probes = (confluence_probe(expr, trials=orders, seed=probe_seed)
              for expr, probe_seed in fuzz_cases(count, max_depth, seed))
    return sum(seen != reference for seen, reference in probes)


def random_expression(rng: random.Random, max_depth: int = 6, max_width: int = 4) -> MarkExpr:
    def build(depth: int) -> str:
        if depth >= max_depth or rng.random() < 0.3:
            return "()"
        width = rng.randint(0, max_width)
        return "(" + "".join(build(depth + 1) for _ in range(width)) + ")"

    top = rng.randint(0, max_width)
    return MarkExpr("".join(build(1) for _ in range(top)))


# ---------------------------------------------------------------------------
# Logic bridge: marked = true, unmarked = false, enclosure = NOT,
# juxtaposition = OR.


def eval_logic(expr: MarkExpr, assignment: dict[str, bool]) -> bool:
    unbound = expr.variables() - set(assignment)
    if unbound:
        raise ValueError(f"unbound variable(s): {', '.join(sorted(unbound))}")
    return any(_fold(expr.text, assignment.__getitem__, lambda values: not any(values)))
