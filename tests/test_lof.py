import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iterant_lab import lof, verify
from iterant_lab.groups import MAX_LOF_MARKS
from iterant_lab.lof import (
    MarkExpr,
    ReductionStep,
    confluence_fuzz,
    confluence_probe,
    eval_logic,
    forests,
    linear_value,
    parse,
    random_expression,
    reduce_expression,
    reduce_untraced,
    successors,
)

WORKED = "((((()())())())())()"


def test_parse_single_mark():
    assert parse("()") == MarkExpr("()")


def test_parse_nested_mark():
    assert parse("(())") == MarkExpr("(())")


def test_parse_keeps_marks_and_letters_only():
    assert parse(" ( * a ( ) ) b ").text == "(a())b"
    assert str(parse(" * ")) == "*" and parse(" * ").text == ""


def test_parse_star_is_empty():
    assert parse("*") == MarkExpr()
    assert parse("* () *") == parse("()")


def test_parse_whitespace_ignored():
    assert parse(" ( ( ) ) ") == parse("(())")


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match=r"^unbalanced '\(' at position 0$"):
        parse("(()")
    with pytest.raises(ValueError, match=r"^unbalanced '\)' at position 2$"):
        parse("())")
    with pytest.raises(ValueError, match=r"^unexpected character '1' at position 1$"):
        parse("(1)")


def test_multiset_equality():
    assert parse("()(())") == parse("(())()")
    assert parse("(ab)") == parse("(ba)")
    assert parse("()") != parse("(())")


def test_worked_example_reduces_to_marked():
    result = reduce_expression(parse(WORKED))
    assert result.value == "marked"
    assert len(result.trace) == 5


def test_worked_example_trace_rows():
    assert reduce_expression(parse(WORKED)).trace == (
        ReductionStep("calling", (0, 0, 0, 0), "((((()())())())())()", "((((())())())())()"),
        ReductionStep("crossing", (0, 0, 0), "((((())())())())()", "(((())())())()"),
        ReductionStep("crossing", (0, 0), "(((())())())()", "((())())()"),
        ReductionStep("crossing", (0,), "((())())()", "(())()"),
        ReductionStep("crossing", (), "(())()", "()"),
    )


def test_flat_list_offers_one_calling_per_step():
    assert reduce_expression(parse("()()()()")).trace == (
        ReductionStep("calling", (), "()()()()", "()()()"),
        ReductionStep("calling", (), "()()()", "()()"),
        ReductionStep("calling", (), "()()", "()"),
    )


def test_deepest_list_rewrites_first():
    assert reduce_expression(parse("((()())(()))")).trace == (
        ReductionStep("calling", (0, 0), "((()())(()))", "((())(()))"),
        ReductionStep("crossing", (0,), "((())(()))", "((()))"),
        ReductionStep("crossing", (0,), "((()))", "()"),
    )


def test_crossing_and_calling():
    assert reduce_expression(parse("(())")).value == "unmarked"
    assert reduce_expression(parse("()()")).value == "marked"
    assert reduce_expression(parse("((()())())()")).value == "marked"
    assert reduce_expression(parse("")).value == "unmarked"
    assert reduce_expression(parse("()")).value == "marked"


def test_trace_steps_shrink_mark_count():
    result = reduce_expression(parse(WORKED))
    counts = [step.before.count("(") for step in result.trace]
    counts.append(result.trace[-1].after.count("("))
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_trace_rules_are_single_rewrites():
    result = reduce_expression(parse(WORKED))
    for step in result.trace:
        removed = step.before.count("(") - step.after.count("(")
        assert removed == (1 if step.rule == "calling" else 2)


def test_reduce_rejects_variables():
    with pytest.raises(ValueError, match="variables"):
        reduce_expression(parse("(A)"))


RUN_BY_EACH_PICKER = [reduce_expression, lambda e: confluence_probe(e, 3, seed=0)]


@pytest.mark.parametrize("run", RUN_BY_EACH_PICKER)
def test_a_redex_walk_that_stops_early_is_caught(monkeypatch, run):
    # the lists above a rewrite are never updated, so the crossing that the
    # first step makes one list up goes unseen and the run stops after it
    monkeypatch.setattr(lof._Worklist, "refile", lambda work, owner: None)
    with pytest.raises(AssertionError, match="non-terminal expression without a redex"):
        run(parse(WORKED))


@pytest.mark.parametrize("run", RUN_BY_EACH_PICKER)
@pytest.mark.parametrize("text,rule,message", [
    (WORKED, "calling", "a calling would drop a mark holding 2 marks, 1 of them empty"),
    ("((()))", "crossing", "a crossing would drop a mark holding 1 marks, 0 of them empty"),
], ids=["calling", "crossing"])
def test_a_rewrite_of_a_mark_with_live_contents_is_caught(monkeypatch, run, text, rule, message):
    # both pickers offer the first mark of the top list, which holds more
    # than the rule may drop
    for picker in ("first_deepest", "random"):
        monkeypatch.setattr(lof._Worklist, picker, lambda work, *rng: (0, (rule, 1)))
    with pytest.raises(AssertionError, match=message):
        run(parse(text))


def test_crossing_beside_an_empty_mark():
    assert reduce_expression(parse("()(())")).trace == (
        ReductionStep("crossing", (), "()(())", "()"),
    )


def test_a_crossing_two_lists_up_is_found():
    # the first crossing empties the list of the second mark, so the outermost
    # mark becomes a crossing in the top list, two lists above the rewrite
    assert reduce_expression(parse("(((())))")).trace == (
        ReductionStep("crossing", (0, 0), "(((())))", "(())"),
        ReductionStep("crossing", (), "(())", "*"),
    )


def test_a_hundred_wide_flat_list():
    trace = reduce_expression(parse("()" * 100)).trace
    assert trace == tuple(
        ReductionStep("calling", (), "()" * k, "()" * (k - 1)) for k in range(100, 1, -1))
    inside = reduce_expression(parse("(" + "()" * 100 + ")"))
    assert inside.value == "unmarked"
    assert [step.location for step in inside.trace] == [(0,)] * 99 + [()]


def test_deep_nesting_needs_no_recursion():
    text = "(" * 3000 + ")" * 3000
    expr = parse(text)
    assert str(expr) == text
    assert expr == parse(text) and eval_logic(expr, {}) is False
    result = reduce_expression(expr)
    assert result.value == "unmarked"
    assert len(result.trace) == 1500
    assert result.trace[0].location == (0,) * 2998
    assert result.trace[-1] == ReductionStep("crossing", (), "(())", "*")


@pytest.mark.parametrize("text,value,steps", [
    ("()" * MAX_LOF_MARKS, "marked", MAX_LOF_MARKS - 1),
    ("(" + "()" * (MAX_LOF_MARKS - 1) + ")", "unmarked", MAX_LOF_MARKS - 1),
    ("(" * MAX_LOF_MARKS + ")" * MAX_LOF_MARKS, "unmarked", MAX_LOF_MARKS // 2),
], ids=["flat", "inside", "deep"])
def test_expressions_at_the_mark_cap_reduce(text, value, steps):
    expr = parse(text)
    assert reduce_untraced(expr) == (value, steps)
    assert confluence_probe(expr, 1, seed=0) == ((value,), (value,))


def test_deep_marks_compare_hash_print_and_evaluate_without_recursion():
    deep = parse("(" * 3000 + ")" * 3000)
    same = parse("(" * 3000 + ")" * 3000)
    other = parse("(" * 3000 + "a" + ")" * 3000)
    assert deep == same and hash(deep) == hash(same) and deep != other
    assert str(other) == "(" * 3000 + "a" + ")" * 3000
    left = parse("(" * 3000 + "a()" + ")" * 3000)
    right = parse("(" * 3000 + "()a" + ")" * 3000)
    assert left == right and hash(left) == hash(right) and left.text != right.text
    assert other.variables() == {"a"}
    assert eval_logic(deep, {}) is False
    assert eval_logic(other, {"a": True}) is True
    assert eval_logic(parse("(" * 2999 + "a" + ")" * 2999), {"a": True}) is False
    assert reduce_untraced(deep) == ("unmarked", 1500)


def test_expression_equality_ignores_sibling_order_and_text_keeps_it():
    left, right = parse("(()a)"), parse("(a())")
    assert left == right and hash(left) == hash(right)
    assert (left.text, right.text) == ("(()a)", "(a())")
    assert repr(left) == "MarkExpr(text='(()a)')"
    assert parse("((a)b)") != parse("((b)a)") and parse("ab") != parse("(ab)")
    assert parse("ab").variables() == {"a", "b"}


def test_confluence_two_crossings():
    seen, reference = confluence_probe(parse("(())(())"), trials=20, seed=3)
    assert seen == reference
    assert reference == ("unmarked",)


def test_confluence_random_expressions():
    rng = random.Random(60)
    for _ in range(150):
        expr = random_expression(rng, max_depth=6, max_width=4)
        seen, reference = confluence_probe(expr, trials=5, seed=rng.randrange(1 << 30))
        assert seen == reference


def test_confluence_empty_expression():
    seen, reference = confluence_probe(parse("*"), trials=3, seed=0)
    assert seen == reference
    assert reference == ("unmarked",)


@pytest.mark.parametrize(
    "text,table",
    [
        ("(A)B", lambda a, b: (not a) or b),
        ("((A)(B))", lambda a, b: a and b),
        ("AB", lambda a, b: a or b),
        ("(A)", lambda a, b: not a),
        ("((A))", lambda a, b: a),
    ],
)
def test_logic_truth_tables(text, table):
    expr = parse(text)
    for a in (False, True):
        for b in (False, True):
            assert eval_logic(expr, {"A": a, "B": b}) == table(a, b)


def test_logic_constants():
    assert eval_logic(parse("()"), {}) is True
    assert eval_logic(parse("(())"), {}) is False


def test_logic_unbound_variable():
    with pytest.raises(ValueError, match="unbound"):
        eval_logic(parse("AB"), {"A": True})


def test_text_roundtrip():
    rng = random.Random(61)
    for _ in range(100):
        expr = random_expression(rng, max_depth=5, max_width=3)
        assert parse(str(expr)).text == expr.text


# sha256 of the value, the trace and the untraced result of every expression
# of _pinned_sweep, in order; a change to the reducer's output must update it
REDUCER_SHA256 = "55495285e5445f7e02243ff92dbc1f461382f8b4059a22593b9f2af94fdefde4"


def _pinned_sweep():
    """676 expressions: 600 seeded random forests of every shape bound from
    depth 1 to 6 and width 1 to 5, then flat lists and one mark holding a flat
    list, of 2 to 39 empty marks."""
    rng = random.Random(16)
    for i in range(600):
        yield random_expression(rng, max_depth=1 + i % 6, max_width=1 + i % 5)
    for k in range(2, 40):
        yield parse("()" * k)
        yield parse("(" + "()" * k + ")")


def test_reducer_output_is_pinned():
    digest = hashlib.sha256()
    for expr in _pinned_sweep():
        result = reduce_expression(expr)
        trace = tuple((s.rule, s.location, s.before, s.after) for s in result.trace)
        digest.update(repr((result.value, trace, reduce_untraced(expr))).encode())
    assert digest.hexdigest() == REDUCER_SHA256


def test_confluence_fuzz_finds_no_disagreement():
    assert confluence_fuzz(40, max_depth=5, orders=3, seed=2) == 0


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_forests_above_the_enumerated_sizes_reach_their_linear_value_in_random_orders(seed):
    # C13.confluence enumerates every forest of at most ENUMERATED_MARKS
    # marks; above that, 100 seeded forests, each in 3 random rule orders,
    # test the worklist's bookkeeping at depth
    large = (case for case in lof.fuzz_cases(1000, max_depth=6, seed=seed)
             if case[0].text.count("(") > verify.ENUMERATED_MARKS)
    forests = list(itertools.islice(large, 100))
    assert len(forests) == 100
    for expr, probe_seed in forests:
        seen, reference = confluence_probe(expr, trials=3, seed=probe_seed)
        assert seen == reference, (str(expr), probe_seed)


def test_drawing_fuzz_cases_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        cases = list(lof.fuzz_cases(1000, max_depth=6, seed=20))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(cases) == 1000


_forest_texts = st.recursive(
    st.just(""),
    lambda forests: st.lists(forests.map(lambda inner: f"({inner})"), max_size=4).map("".join),
    max_leaves=40,
)
mark_forests = st.one_of(
    _forest_texts,
    # a forest inside a chain of single marks, where a step that empties a
    # list makes a crossing two lists up; the branch above rarely draws one
    st.builds(lambda inner, links: "(" * links + inner + ")" * links,
              _forest_texts, st.integers(min_value=1, max_value=4)),
).map(MarkExpr)


@settings(max_examples=150, deadline=None)
@given(mark_forests, st.integers(min_value=0, max_value=(1 << 30) - 1))
def test_every_rewrite_order_reaches_the_linear_value(expr, seed):
    result = reduce_expression(expr)
    assert result.value == linear_value(expr)
    for step in result.trace:
        removed = step.before.count("(") - step.after.count("(")
        assert removed == (1 if step.rule == "calling" else 2)
    seen, reference = confluence_probe(expr, 3, seed)
    assert seen == reference


def _oracle_forest(text):
    """The forest as nested tuples: each mark is the tuple of its contents."""
    stack = [[]]
    for ch in text:
        if ch == "(":
            stack.append([])
        else:
            inner = tuple(stack.pop())
            stack[-1].append(inner)
    return tuple(stack[0])


def _oracle_text(items):
    return "".join("(" + _oracle_text(node) + ")" for node in items)


def _oracle_redexes(items, path=()):
    """The whole-forest redex walk of the first engine: sibling lists in
    preorder, each giving its one calling and then its crossings by index."""
    empties = [i for i, node in enumerate(items) if not node]
    out = [("calling", path, empties[1])] if len(empties) > 1 else []
    out += [("crossing", path, i) for i, node in enumerate(items)
            if len(node) == 1 and not node[0]]
    for i, node in enumerate(items):
        out += _oracle_redexes(node, path + (i,))
    return out


def _oracle_drop(items, path, index):
    if not path:
        return items[:index] + items[index + 1:]
    head = path[0]
    inner = _oracle_drop(items[head], path[1:], index)
    return items[:head] + (inner,) + items[head + 1:]


def oracle_trace(expr):
    """First-deepest reduction by re-walking the whole forest after every step."""
    items, trace = _oracle_forest(expr.text), []
    while redexes := _oracle_redexes(items):
        rule, path, index = max(redexes, key=lambda redex: len(redex[1]))
        after = _oracle_drop(items, path, index)
        trace.append(ReductionStep(rule, path, _oracle_text(items) or "*",
                                   _oracle_text(after) or "*"))
        items = after
    return tuple(trace)


@settings(max_examples=300, deadline=None)
@given(mark_forests)
def test_worklist_trace_is_the_whole_forest_trace(expr):
    assert reduce_expression(expr).trace == oracle_trace(expr)


def _id_forest(text):
    """The forest as nested [id, children] lists, ids in preorder, the root 0."""
    root = [0, []]
    stack, ids = [root], 0
    for ch in text:
        if ch == "(":
            ids += 1
            stack[-1][1].append(node := [ids, []])
            stack.append(node)
        else:
            stack.pop()
    return root


def _places(node, path=()):
    """Each mark's id mapped to its child-index path and its mark."""
    out = {node[0]: (path, node)}
    for i, child in enumerate(node[1]):
        out.update(_places(child, path + (i,)))
    return out


def _plain(node):
    return tuple(_plain(child) for child in node[1])


def _engine_redexes(work, places):
    """The worklist's redexes as (rule, path, index); every owner with one is
    in the pool."""
    out = []
    for owner, (path, mark) in places.items():
        empties, crossings = work.empties[owner], work.crossings[owner]
        dropped = [("calling", empties[1])] if len(empties) > 1 else []
        dropped += [("crossing", node) for node in crossings]
        assert (work.slot[owner] >= 0) == bool(dropped)
        ids = [child[0] for child in mark[1]]
        out += [(rule, path, ids.index(node)) for rule, node in dropped]
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(mark_forests, st.integers(min_value=0, max_value=(1 << 30) - 1))
@example(MarkExpr("((((()))))(()())"), 0)  # a crossing two lists up, rarely drawn
def test_live_redexes_are_the_whole_forest_redexes_after_every_step(expr, seed):
    rng = random.Random(seed)
    for pick in (lof._Worklist.first_deepest, lambda work: work.random(rng)):
        root = _id_forest(expr.text)

        def checked(work):
            places = _places(root)
            assert _engine_redexes(work, places) == sorted(_oracle_redexes(_plain(root)))
            owner, (rule, node) = pick(work)
            places[owner][1][1].remove(places[node][1])
            return owner, (rule, node)

        value, steps = lof._rewrite(lof._Worklist(expr.text), checked)
        assert _oracle_redexes(_plain(root)) == []
        assert value == linear_value(expr)


FOREST_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)  # rooted trees of n + 1 nodes


def test_forests_lists_each_multiset_of_marks_once_in_sorted_form():
    for marks, count in enumerate(FOREST_COUNTS):
        texts = forests(marks)
        assert len(texts) == count and texts == sorted(texts)
        assert all(text.count("(") == marks and parse(text).text == text for text in texts)
        keys = [lof._forest_key(text) for text in texts]
        assert keys == texts and len(set(keys)) == count


def _oracle_successor_keys(text):
    items = _oracle_forest(text)
    return sorted(lof._forest_key(_oracle_text(_oracle_drop(items, path, index)))
                  for _, path, index in _oracle_redexes(items))


def _successor_keys(expr):
    return sorted(lof._forest_key(after.text) for after in successors(expr))


def test_successors_are_the_oracle_drops_on_every_small_forest():
    for marks in range(8):
        for text in forests(marks):
            assert _successor_keys(MarkExpr(text)) == _oracle_successor_keys(text), text


@settings(max_examples=200, deadline=None)
@given(mark_forests)
@example(MarkExpr("((((()))))(()())"))
def test_successors_are_the_oracle_drops(expr):
    assert _successor_keys(expr) == _oracle_successor_keys(expr.text)


def _folded_value(expr):
    """The linear value read off eval_logic's generic fold."""
    return "marked" if eval_logic(expr, {}) else "unmarked"


def test_linear_value_is_the_fold_on_every_small_forest_and_its_successors():
    for marks in range(10):
        for text in forests(marks):
            for expr in (MarkExpr(text), *successors(MarkExpr(text))):
                assert linear_value(expr) == _folded_value(expr), expr.text


@settings(max_examples=200, deadline=None)
@given(mark_forests)
def test_linear_value_is_the_fold(expr):
    assert linear_value(expr) == _folded_value(expr)


@pytest.mark.parametrize("text,value", [
    ("()" * MAX_LOF_MARKS, "marked"),
    ("(" + "()" * (MAX_LOF_MARKS - 1) + ")", "unmarked"),
    ("(" * MAX_LOF_MARKS + ")" * MAX_LOF_MARKS, "unmarked"),
    ("(" * (MAX_LOF_MARKS - 1) + ")" * (MAX_LOF_MARKS - 1), "marked"),
], ids=["wide", "inside", "deep", "deep-odd"])
def test_linear_value_at_the_mark_cap_needs_no_recursion(text, value):
    assert linear_value(parse(text)) == value


def test_linear_value_names_the_variables_it_cannot_read():
    with pytest.raises(ValueError, match=r"^unbound variable\(s\): a, b$"):
        linear_value(parse("((b)())a"))
