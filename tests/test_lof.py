import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterant_lab import lof
from iterant_lab.lof import (
    Mark,
    MarkExpr,
    MarkParseError,
    ReductionStep,
    confluence_fuzz,
    confluence_probe,
    eval_logic,
    parse,
    random_expression,
    reduce_expression,
    unparse,
)

WORKED = "((((()())())())())()"


def test_parse_single_mark():
    expr = parse("()")
    assert expr.items == (Mark(()),)


def test_parse_nested_mark():
    expr = parse("(())")
    assert expr.items == (Mark((Mark(()),)),)


def test_parse_star_is_empty():
    assert parse("*") == MarkExpr()
    assert parse("* () *") == parse("()")


def test_parse_whitespace_ignored():
    assert parse(" ( ( ) ) ") == parse("(())")


def test_parse_errors_carry_position():
    with pytest.raises(MarkParseError) as err:
        parse("(()")
    assert err.value.position == 0
    with pytest.raises(MarkParseError) as err:
        parse("())")
    assert err.value.position == 2
    with pytest.raises(MarkParseError):
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


@pytest.mark.parametrize("run", [reduce_expression, lambda e: confluence_probe(e, 3, seed=0)])
def test_a_redex_walk_that_stops_early_is_caught(monkeypatch, run):
    real = lof._list_redexes
    looked_at = set()

    def misses_every_new_redex(owner):
        # the first look at each list is true; every look after a rewrite
        # reports nothing, so the run stops after its first step
        if owner in looked_at:
            return []
        looked_at.add(owner)
        return real(owner)

    monkeypatch.setattr(lof, "_list_redexes", misses_every_new_redex)
    with pytest.raises(AssertionError, match="non-terminal expression without a redex"):
        run(parse(WORKED))


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
    assert unparse(expr) == text
    assert expr == parse(text) and eval_logic(expr, {}) is False
    result = reduce_expression(expr)
    assert result.value == "unmarked"
    assert len(result.trace) == 1500
    assert result.trace[0].location == (0,) * 2998
    assert result.trace[-1] == ReductionStep("crossing", (), "(())", "*")


def test_deep_marks_compare_hash_print_and_evaluate_without_recursion():
    deep = parse("(" * 3000 + ")" * 3000).items[0]
    same = parse("(" * 3000 + ")" * 3000).items[0]
    other = parse("(" * 3000 + "a" + ")" * 3000).items[0]
    assert deep == same and hash(deep) == hash(same) and deep != other
    assert repr(deep) == "Mark(children=(" * 2999 + "Mark(children=())" + ",))" * 2999
    assert repr(other) == "Mark(children=(" * 3000 + "Var(name='a')" + ",))" * 3000
    assert eval_logic(MarkExpr((deep,)), {}) is False
    assert eval_logic(MarkExpr((other,)), {"a": True}) is True
    assert eval_logic(parse("(" * 2999 + "a" + ")" * 2999), {"a": True}) is False


def test_mark_equality_is_ordered_and_expression_equality_is_not():
    left, right = parse("(()a)").items[0], parse("(a())").items[0]
    assert left != right and parse("(()a)") == parse("(a())")
    assert Mark((Mark(()), lof.Var("a"))) == left
    assert repr(left) == "Mark(children=(Mark(children=()), Var(name='a')))"
    assert repr(parse("((b))").items[0]) == "Mark(children=(Mark(children=(Var(name='b'),)),))"
    for name in ("(", ")", "ab", "", "1"):
        with pytest.raises(ValueError, match="not one letter"):
            lof.Var(name)


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


def test_unparse_roundtrip():
    rng = random.Random(61)
    for _ in range(100):
        expr = random_expression(rng, max_depth=5, max_width=3)
        assert parse(unparse(expr)) == expr


def test_confluence_fuzz_finds_no_disagreement():
    assert confluence_fuzz(40, max_depth=5, orders=3, seed=2) == 0


mark_forests = st.recursive(
    st.just(()),
    lambda forests: st.lists(forests.map(Mark), max_size=4).map(tuple),
    max_leaves=40,
).map(MarkExpr)


@settings(max_examples=150, deadline=None)
@given(mark_forests, st.integers(min_value=0, max_value=(1 << 30) - 1))
def test_every_rewrite_order_reaches_the_linear_value(expr, seed):
    result = reduce_expression(expr)
    assert result.value == ("marked" if eval_logic(expr, {}) else "unmarked")
    for step in result.trace:
        removed = step.before.count("(") - step.after.count("(")
        assert removed == (1 if step.rule == "calling" else 2)
    seen, reference = confluence_probe(expr, 3, seed)
    assert seen == reference


def _oracle_redexes(items, path=()):
    """The whole-forest redex walk of the first engine: sibling lists in
    preorder, each giving its one calling and then its crossings by index."""
    empties = [i for i, node in enumerate(items) if not node.children]
    out = [("calling", path, empties[1])] if len(empties) > 1 else []
    out += [("crossing", path, i) for i, node in enumerate(items)
            if len(node.children) == 1 and not node.children[0].children]
    for i, node in enumerate(items):
        out += _oracle_redexes(node.children, path + (i,))
    return out


def _oracle_drop(items, path, index):
    if not path:
        return items[:index] + items[index + 1:]
    head = path[0]
    inner = Mark(_oracle_drop(items[head].children, path[1:], index))
    return items[:head] + (inner,) + items[head + 1:]


def oracle_trace(expr):
    """First-deepest reduction by re-walking the whole forest after every step."""
    items, trace = expr.items, []
    while redexes := _oracle_redexes(items):
        rule, path, index = max(redexes, key=lambda redex: len(redex[1]))
        after = _oracle_drop(items, path, index)
        trace.append(ReductionStep(rule, path, unparse(MarkExpr(items)), unparse(MarkExpr(after))))
        items = after
    return tuple(trace)


@settings(max_examples=300, deadline=None)
@given(mark_forests)
def test_worklist_trace_is_the_whole_forest_trace(expr):
    assert reduce_expression(expr).trace == oracle_trace(expr)
