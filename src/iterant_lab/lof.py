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
the linear rule (``linear_value``, one pass over the text): a mark is marked
iff none of its contents is.  The argument is local.  A rewrite changes one
sibling list, and a list's value depends only on its members' values, so a
step that keeps the value of the list it rewrites keeps the value of every
forest around it.  Every step removes marks, so every run ends, and a forest
of two marks or more has a redex beside or around a deepest mark, so the only
normal forms are "()" and nothing, one per value.  So every run ends in the normal form of the
start's value, whatever the rule order.  Newman's lemma (Newman, Ann. Math.
43 (1942) 223: a terminating, locally confluent system is confluent) is the
general form of this argument; the rules are Spencer-Brown's (Laws of Form
(1969), ch. 5-6).  ``successors`` lists the one-step rewrites of an
expression and ``forests`` every forest of a given number of marks, so that
the steps can be checked on every forest up to a size.

One rewrite loop applies the rules to a worklist built from the text: for
every owner of a sibling list, its number of live children and its ordered
empty and crossing children.  A step updates the three lists it can
change and rescans none, so an untraced step costs a few bisections and heap
operations at any width or depth.  A traced run places each step from the
marks' preorder ids and depths and the sorted ids of the marks removed so
far; it keeps no second model of the forest.  The deterministic
reducer and the seeded random prober differ only in how they pick the next
redex; the prober builds the worklist once and rewrites a copy of it for
each trial, and hands back the values its runs reach beside the linear
value, for the caller to compare.  Every walk over a text keeps its own
stack, so nesting depth is bounded by memory, not by Python's recursion
limit.  Letters extend the grammar to the primary algebra, where
juxtaposition reads as OR and enclosure as NOT.  The order-two generator
pair behind the re-entrant mark builds no mark; its relations live with the
other period-two code, in ``iterants.majorana_pair_relations``.
"""

from __future__ import annotations

import bisect
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


def parse(text: str) -> MarkExpr:
    """Grammar: expr := term*; term := '(' expr ')' | '*' | letter.

    '*' stands for the empty expression and may appear anywhere; whitespace
    is ignored.  More than groups.MAX_LOF_MARKS marks is a ValueError, and so
    is an unbalanced mark or another character, whose message names its
    position in the text.
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
                raise ValueError(f"unbalanced ')' at position {pos}")
            opens.pop()
        elif not ch.isalpha():
            raise ValueError(f"unexpected character {ch!r} at position {pos}")
        kept.append(ch)
    if opens:
        raise ValueError(f"unbalanced '(' at position {opens[-1]}")
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


Redex = tuple[str, int]  # (rule, the id of the mark it drops)
_REMOVED_MARKS = {"calling": 1, "crossing": 2}


class _Worklist:
    """A forest under rewriting and its redex bookkeeping.  Marks are numbered
    in preorder, 0 being the root that owns the top list, so the order of a
    sibling list is id order.  Each owner keeps its number of live children
    and the sorted ids of its empty children and of its crossing children (a
    mark holding one empty mark and nothing else).  A list offers one calling,
    which drops its second empty mark, then its crossings in order.  The
    owners whose list holds a redex form an indexable pool, and a heap holds
    them deepest first, then by preorder; an owner that has left the pool
    stays in the heap until it reaches the top."""

    __slots__ = ("parent", "depth", "count", "empties", "crossings", "pool", "slot", "heap")

    def __init__(self, text: str):
        marks = text.count("(") + 1  # and the root
        parent, depth, count = [-1] * marks, [0] * marks, [0] * marks
        empties: list[list[int]] = [[] for _ in range(marks)]
        crossings: list[list[int]] = [[] for _ in range(marks)]
        open_marks, node = [0], 0
        for token in text:
            if token == "(":
                node += 1
                up = parent[node] = open_marks[-1]
                count[up] += 1
                depth[node] = len(open_marks)
                open_marks.append(node)
            elif token == ")":
                done = open_marks.pop()
                if not count[done]:
                    empties[open_marks[-1]].append(done)
                elif count[done] == 1 and empties[done]:
                    crossings[open_marks[-1]].append(done)
            else:
                raise ValueError("cannot reduce an expression containing variables")
        self.parent, self.depth = parent, depth
        self.count, self.empties, self.crossings = count, empties, crossings
        self.pool = [owner for owner in range(marks) if len(empties[owner]) > 1 or crossings[owner]]
        self.slot = [-1] * marks  # each owner's place in the pool, -1 outside it
        for place, owner in enumerate(self.pool):
            self.slot[owner] = place
        # deepest first, then by preorder; the key's remainder is the owner
        self.heap = [owner - depth[owner] * marks for owner in self.pool]
        heapq.heapify(self.heap)

    def copy(self) -> _Worklist:
        """An independent copy; the parents and depths never change."""
        twin = object.__new__(_Worklist)
        twin.parent, twin.depth = self.parent, self.depth
        twin.count, twin.slot = self.count[:], self.slot[:]
        twin.empties = list(map(list.copy, self.empties))
        twin.crossings = list(map(list.copy, self.crossings))
        twin.pool, twin.heap = self.pool[:], self.heap[:]
        return twin

    def enlist(self, owner: int) -> None:
        """Put owner in the pool and the heap if its list holds a redex."""
        if self.slot[owner] < 0 and (len(self.empties[owner]) > 1 or self.crossings[owner]):
            self.slot[owner] = len(self.pool)
            self.pool.append(owner)
            heapq.heappush(self.heap, owner - self.depth[owner] * len(self.slot))

    def first_deepest(self) -> tuple[int, Redex]:
        """The first redex of the deepest live list, the first in preorder."""
        heap, slot, n = self.heap, self.slot, len(self.slot)
        while slot[owner := heap[0] % n] < 0:
            heapq.heappop(heap)
        empties = self.empties[owner]
        return owner, ("calling", empties[1]) if len(empties) > 1 else (
            "crossing", self.crossings[owner][0])

    def random(self, rng: random.Random) -> tuple[int, Redex]:
        """A uniform redex of a uniform live list."""
        owner = rng.choice(self.pool)
        empties, crossings = self.empties[owner], self.crossings[owner]
        calling = len(empties) > 1
        offered = calling + len(crossings)
        index = (rng.randrange(offered) if offered > 1 else 0) - calling
        return owner, ("calling", empties[1]) if index < 0 else ("crossing", crossings[index])

    def drop(self, owner: int, node: int, rule: str) -> None:
        """Apply the redex (rule, node) of owner's list: the list loses node,
        owner leaves the pool if no redex is left in it, and the lists above
        are refiled."""
        siblings = (self.empties if rule == "calling" else self.crossings)[owner]
        del siblings[bisect.bisect_left(siblings, node)]
        self.count[owner] -= 1
        if len(self.empties[owner]) < 2 and not self.crossings[owner]:
            pool, slot = self.pool, self.slot
            last = pool.pop()
            if last != owner:
                pool[slot[owner]] = last
                slot[last] = slot[owner]
            slot[owner] = -1
        self.refile(owner)

    def refile(self, owner: int) -> None:
        """The two lists above a rewrite: owner, which lost a mark, may now be
        empty or a crossing in its parent's list, and a parent holding only
        an owner that is now empty is a crossing one list higher.  Before the
        step owner was neither: it held two marks or a mark with contents."""
        up = self.parent[owner]
        if up < 0:
            return
        if not self.count[owner]:
            bisect.insort(self.empties[up], owner)
            self.enlist(up)
            top = self.parent[up]
            if self.count[up] == 1 and top >= 0:
                bisect.insort(self.crossings[top], up)
                self.enlist(top)
        elif self.count[owner] == 1 and self.empties[owner]:
            bisect.insort(self.crossings[up], owner)
            self.enlist(up)


def _rewrite(
    work: _Worklist,
    pick: Callable[[_Worklist], tuple[int, Redex]],
    record: Callable[[int, int, str], None] | None = None,
) -> tuple[str, int]:
    """The one rewrite loop: apply the redex that pick chooses until none is
    left, hand each step's owner, dropped mark and rule to record before the
    step is applied, and return the value read off the normal form, which
    must be one empty mark or nothing, with the number of steps.

    A rewrite in one sibling list can change the redexes of only three lists:
    that list, the list holding its owner (the owner may now be empty or hold
    one empty mark) and the list above (whose mark may now hold one empty
    mark).  _Worklist.drop updates those three; no list is scanned again.
    """
    count, empties = work.count, work.empties
    steps = 0
    while work.pool:
        steps += 1
        owner, (rule, node) = pick(work)
        # a calling drops an empty mark, a crossing a mark holding one empty mark
        if not count[node] == len(empties[node]) == _REMOVED_MARKS[rule] - 1:
            raise AssertionError(f"a {rule} would drop a mark holding {count[node]} marks, "
                                 f"{len(empties[node])} of them empty")
        if record:
            record(owner, node, rule)
        work.drop(owner, node, rule)
    if count[0] > 1 or (count[0] and not empties[0]):
        raise AssertionError("non-terminal expression without a redex")
    return ("marked" if count[0] else "unmarked"), steps


def reduce_expression(expr: MarkExpr) -> ReductionResult:
    """Deepest-first reduction to marked/unmarked, with a step-by-step trace.

    A step is placed from preorder ids alone.  A removed mark takes its
    contents with it and no live mark's ancestor is removed, so a live mark's
    "(" follows one character for each of its ancestors and two for each
    other live mark before it: 2 (node - 1 - g) - depth + 1 in all, g being
    the removed marks of smaller id.  A mark's child index is its index in
    the parsed text less its removed elder siblings; a crossing's inner mark
    counts only in g, because its owner goes with it."""
    work = _Worklist(expr.text)
    parent, depth = work.parent, work.depth
    born, seen = [0] * len(parent), [0] * len(parent)  # each mark's parsed child index
    for node in range(1, len(parent)):
        born[node] = seen[parent[node]]
        seen[parent[node]] += 1
    gone: list[int] = []  # the removed marks, sorted
    gone_from: list[list[int]] = [[] for _ in parent]  # the removed children of each owner
    text, trace = expr.text, []

    def record(owner: int, node: int, rule: str) -> None:
        nonlocal text
        path, mark = [], owner
        while mark:
            up = parent[mark]
            path.append(born[mark] - bisect.bisect_left(gone_from[up], mark))
            mark = up
        offset = 2 * (node - 1 - bisect.bisect_left(gone, node)) - depth[node] + 1
        after = text[:offset] + text[offset + 2 * _REMOVED_MARKS[rule]:]
        trace.append(ReductionStep(rule, tuple(reversed(path)), text, after or "*"))
        text = after
        bisect.insort(gone_from[owner], node)
        bisect.insort(gone, node)
        if rule == "crossing":
            bisect.insort(gone, work.empties[node][0])

    value, _ = _rewrite(work, _Worklist.first_deepest, record)
    return ReductionResult(value, tuple(trace))


def reduce_untraced(expr: MarkExpr) -> tuple[str, int]:
    """The value and the step count of the same reduction, with no step text."""
    return _rewrite(_Worklist(expr.text), _Worklist.first_deepest)


def confluence_probe(
    expr: MarkExpr, trials: int, seed: int
) -> tuple[tuple[str, ...], tuple[str]]:
    """The sorted values that trials reductions in seeded-random rule order
    reach, against the one-value tuple of the expression's linear value:
    confluence holds exactly when the two are equal."""
    rng = random.Random(seed)
    start = _Worklist(expr.text)
    values = tuple(sorted({_rewrite(start.copy(), lambda work: work.random(rng))[0]
                           for _ in range(trials)}))
    return values, (linear_value(expr),)


def successors(expr: MarkExpr) -> list[MarkExpr]:
    """Every one-step rewrite of expr, one per redex: from each list in the
    worklist's pool, its one calling and then each of its crossings.  Nothing
    has been removed yet, so the dropped mark's "(" sits at
    2 (node - 1) - depth + 1, the offset reduce_expression places a step at,
    and the rewrite cuts its span out of the text."""
    work = _Worklist(expr.text)
    text, depth = expr.text, work.depth
    after = []
    for owner in work.pool:
        empties = work.empties[owner]
        dropped = [(empties[1], "calling")] if len(empties) > 1 else []
        dropped += [(node, "crossing") for node in work.crossings[owner]]
        for node, rule in dropped:
            offset = 2 * (node - 1) - depth[node] + 1
            after.append(MarkExpr(text[:offset] + text[offset + 2 * _REMOVED_MARKS[rule]:]))
    return after


def forests(marks: int) -> list[str]:
    """Every forest of exactly `marks` marks, one per multiset, as its text with
    every sibling list sorted as _forest_key sorts it, in sorted order.  For 0
    to 9 marks there are 1, 1, 2, 4, 9, 20, 48, 115, 286 and 719: the rooted
    trees of marks + 1 nodes.  A forest of n marks is a first mark holding a
    forest of k marks beside a forest of the other n - 1 - k; each layer is
    kept as sorted tuples of mark texts, so equal multisets meet in a set."""
    layers: list[set[tuple[str, ...]]] = [{()}]
    for n in range(1, marks + 1):
        layers.append({tuple(sorted(("(" + "".join(inner) + ")", *rest)))
                       for k in range(n) for inner in layers[k] for rest in layers[n - 1 - k]})
    return sorted(map("".join, layers[marks]))


def fuzz_cases(count: int, max_depth: int, seed: int) -> Iterator[tuple[MarkExpr, int]]:
    """count seeded random expressions, each with the seed of its probe."""
    rng = random.Random(seed)
    return ((random_expression(rng, max_depth=max_depth), rng.randrange(1 << 30))
            for _ in range(count))


def confluence_fuzz(count: int, max_depth: int, orders: int, seed: int) -> int:
    """Probe count seeded random expressions, each in the given number of random
    rule orders; return how many reached a value other than the reference."""
    probes = (confluence_probe(expr, trials=orders, seed=probe_seed)
              for expr, probe_seed in fuzz_cases(count, max_depth, seed))
    return sum(seen != reference for seen, reference in probes)


def random_expression(rng: random.Random, max_depth: int = 6, max_width: int = 4) -> MarkExpr:
    top = rng.randint(0, max_width)
    return MarkExpr("".join(_random_mark(rng, 1, max_depth, max_width) for _ in range(top)))


def _random_mark(rng: random.Random, depth: int, max_depth: int, max_width: int) -> str:
    """The text of one random mark at the given depth: empty at max_depth and
    with probability 0.3, else holding up to max_width random marks."""
    if depth >= max_depth or rng.random() < 0.3:
        return "()"
    width = rng.randint(0, max_width)
    return "(" + "".join(_random_mark(rng, depth + 1, max_depth, max_width)
                         for _ in range(width)) + ")"


# ---------------------------------------------------------------------------
# Logic bridge: marked = true, unmarked = false, enclosure = NOT,
# juxtaposition = OR.


def eval_logic(expr: MarkExpr, assignment: dict[str, bool]) -> bool:
    unbound = expr.variables() - set(assignment)
    if unbound:
        raise ValueError(f"unbound variable(s): {', '.join(sorted(unbound))}")
    return any(_fold(expr.text, assignment.__getitem__, lambda values: not any(values)))


def linear_value(expr: MarkExpr) -> str:
    """"marked" or "unmarked" by the linear rule, a mark is marked iff none of
    its contents is: one pass keeps whether each open list holds a marked item."""
    marked = [False]
    for token in expr.text:
        if token == "(":
            marked.append(False)
        elif token == ")":
            if not marked.pop():
                marked[-1] = True
        else:
            raise ValueError(f"unbound variable(s): {', '.join(sorted(expr.variables()))}")
    return "marked" if marked[0] else "unmarked"
