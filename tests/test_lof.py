import random

import pytest

from iterant_lab.lof import (
    Mark,
    MarkExpr,
    MarkParseError,
    confluence_fuzz,
    confluence_probe,
    eval_logic,
    majorana_pair_bridge,
    parse,
    random_expression,
    reduce_expression,
    translate,
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
    assert parse("*").is_empty()
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


def test_crossing_and_calling():
    assert reduce_expression(parse("(())")).value == "unmarked"
    assert reduce_expression(parse("()()")).value == "marked"
    assert reduce_expression(parse("((()())())()")).value == "marked"
    assert reduce_expression(parse("")).value == "unmarked"
    assert reduce_expression(parse("()")).value == "marked"


def test_trace_steps_shrink_mark_count():
    result = reduce_expression(parse(WORKED))
    counts = [parse(step.before).mark_count() for step in result.trace]
    counts.append(parse(result.trace[-1].after).mark_count())
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_trace_rules_are_single_rewrites():
    result = reduce_expression(parse(WORKED))
    for step in result.trace:
        before = parse(step.before).mark_count()
        after = parse(step.after).mark_count()
        assert before - after == (1 if step.rule == "calling" else 2)


def test_reduce_rejects_variables():
    with pytest.raises(ValueError, match="variables"):
        reduce_expression(parse("(A)"))


def test_confluence_two_crossings():
    report = confluence_probe(parse("(())(())"), trials=20, seed=3)
    assert report.all_agree
    assert report.reference_value == "unmarked"


def test_confluence_random_expressions():
    rng = random.Random(60)
    for _ in range(150):
        expr = random_expression(rng, max_depth=6, max_width=4)
        report = confluence_probe(expr, trials=5, seed=rng.randrange(1 << 30))
        assert report.all_agree


def test_confluence_empty_expression():
    report = confluence_probe(parse("*"), trials=3, seed=0)
    assert report.all_agree
    assert report.reference_value == "unmarked"


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


def test_translate_patterns():
    assert translate(parse("()")) == "T"
    assert translate(parse("(())")) == "F"
    assert translate(parse("(A)B")) == "(~A | B)"
    assert translate(parse("((A)(B))")) == "(A & B)"
    assert translate(parse("((A))")) == "A"
    assert translate(parse("*")) == "F"


def test_unparse_roundtrip():
    rng = random.Random(61)
    for _ in range(100):
        expr = random_expression(rng, max_depth=5, max_width=3)
        assert parse(unparse(expr)) == expr


def test_majorana_pair_bridge():
    bridge = majorana_pair_bridge()
    assert bridge["polarity_squared_one"]
    assert bridge["shift_squared_one"]
    assert bridge["anticommute"]
    assert bridge["product_squares_to_minus_one"]


def test_depth_and_counts():
    expr = parse("((()))()")
    assert expr.depth() == 3
    assert expr.mark_count() == 4
    assert MarkExpr(()).depth() == 0


def test_confluence_fuzz_finds_no_disagreement():
    assert confluence_fuzz(40, max_depth=5, orders=3, seed=2) == 0
