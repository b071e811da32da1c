import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatreg import ballquad, integrand
from scatreg.ballquad import screen_singularities
from scatreg.integrand import (
    BinOp,
    EvaluationError,
    IntegrandSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    evaluate,
    parse_integrand,
    pretty_print,
)


def ctx(p=(0, 0, 0, 0), q=(0, 0, 0, 0), m=0.0, L=1.0):
    out = {f"p{i}": float(p[i]) for i in range(4)}
    out.update({f"q{i}": float(q[i]) for i in range(4)})
    out.update({"m": float(m), "L": float(L)})
    return out


def test_parse_constant():
    assert parse_integrand("1") == Num(1.0)


def test_parse_division_of_square():
    tree = parse_integrand("1/(P2+m^2)^2")
    assert isinstance(tree, BinOp) and tree.op == "/"
    assert tree.left == Num(1.0)


def test_parse_precedence_tree():
    tree = parse_integrand("p0*q1 - (PQ)/(P2+1)")
    assert isinstance(tree, BinOp) and tree.op == "-"
    assert tree.left.op == "*"
    assert tree.right.op == "/"


def test_syntax_error_carries_offset_and_expectations():
    with pytest.raises(IntegrandSyntaxError) as err:
        parse_integrand("1 + (p0")
    assert err.value.offset == 7
    assert ")" in err.value.expected


@pytest.mark.parametrize(
    "source,message,offset,expected",
    [
        ("p0 +   $", "unexpected character '$'", 7, ()),
        ("p0\t\t#", "unexpected character '#'", 4, ()),
        ("P2\u2003\u2003!", "unexpected character '!'", 4, ()),
        ("p0\né", "unexpected character 'é'", 3, ()),
        # offsets count characters: the em space is one, though three UTF-8 bytes
        ("\u2003x", "unknown identifier 'x'", 1, ()),
        ("p0 p1", "trailing input 'p1'", 3, ()),
        ("p0^2^3", "trailing input '^'", 4, ()),
        ("(p0 + 1", "unexpected token 'end of input'", 7, (")",)),
        ("(p0 + 1 ]", "unexpected character ']'", 8, ()),
        ("p0^1.5", "exponent must be an integer literal", 3, ("integer",)),
        ("1 + * 2", "unexpected token '*'", 4, ("number", "identifier", "(", "-")),
        # a factor takes one exponent, behind a unary minus too
        ("-p0^2^3", "trailing input '^'", 5, ()),
        ("-(1/(P2+1))^2^3", "trailing input '^'", 13, ()),
        # past the depth limit: at the operator whose node is 101 deep (the
        # 97th '+' of a sum of 10-character terms, the 100th '-' from the
        # operand), or at the 101st '('
        pytest.param("+".join(["1/(P2+1)^2"] * 1200), "expression deeper than 100 levels",
                     1066, (), id="long-sum"),
        pytest.param("-" * 1000 + "1", "expression deeper than 100 levels", 900, (),
                     id="many-minuses"),
        pytest.param("(" * 300 + "1" + ")" * 300, "expression deeper than 100 levels", 100, (),
                     id="nested-parentheses"),
        pytest.param("-(" * 150 + "1" + ")" * 150, "expression deeper than 100 levels", 201, (),
                     id="nested-negations"),
    ],
)
def test_syntax_error_message_offset_and_expected(source, message, offset, expected):
    with pytest.raises(IntegrandSyntaxError) as err:
        parse_integrand(source)
    alternatives = f" (expected {' | '.join(sorted(expected))})" if expected else ""
    assert str(err.value) == f"{message} at offset {offset}{alternatives}"
    assert (err.value.offset, err.value.expected) == (offset, expected)


def test_unary_minus_binds_looser_than_its_operands_exponent():
    x = Var("p0")
    assert parse_integrand("-p0^2") == Neg(Pow(x, 2))
    assert parse_integrand("(-p0^2)^3") == Pow(Neg(Pow(x, 2)), 3)
    assert parse_integrand("(-p0)^2") == Pow(Neg(x), 2)
    assert parse_integrand("--p0^2") == Neg(Neg(Pow(x, 2)))


@pytest.mark.parametrize(
    "source",
    [
        "+".join(["p0"] * 100),  # 99 '+': 100 nodes deep
        "(" * 100 + "p0" + ")" * 100,
        "-" * 99 + "p0",
        "(" * 99 + "p0" + ")" * 99 + "^2",
    ],
)
def test_trees_at_the_depth_limit_parse_evaluate_and_print(source):
    tree = parse_integrand(source)
    assert parse_integrand(pretty_print(tree)) == tree
    assert np.isfinite(evaluate(tree, ctx(p=(1, 0, 0, 0))))


def test_trees_too_deep_to_recurse_are_a_one_line_value_error():
    # built in code, not parsed, so not held to the parser's 100 levels
    tree = Num(1.0)
    for _ in range(2000):
        tree = BinOp("+", tree, Num(1.0))
    calls = [
        (lambda: evaluate(tree, ctx()), "expression too deep to evaluate"),
        (lambda: pretty_print(tree), "expression too deep to print"),
        # the screen evaluates each denominator before it prints it
        (lambda: integrand.scan_denominators(BinOp("/", Num(1.0), tree), ctx()),
         "expression too deep to evaluate"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("tail", [" ", "\t\n", "\u2003", " \u3000\x0b\x0c\r"])
def test_trailing_whitespace_is_accepted(tail):
    assert parse_integrand("1/(P2+1)" + tail) == parse_integrand("1/(P2+1)")


def test_unknown_identifier():
    with pytest.raises(IntegrandSyntaxError, match="unknown identifier"):
        parse_integrand("p0 + x9")


def test_noninteger_exponent_rejected():
    with pytest.raises(IntegrandSyntaxError, match="integer"):
        parse_integrand("p0^1.5")


@pytest.mark.parametrize(
    "source,bindings,expected",
    [
        ("P2", ctx(p=(1, 2, 3, 4)), 30.0),
        ("1/(P2+m^2)^2", ctx(m=1.0), 1.0),
        ("PQ", ctx(p=(1, 0, 0, 0), q=(2, 0, 0, 0)), 2.0),
        ("Q2", ctx(q=(1, 1, 1, 1)), 4.0),
        ("-p1^2", ctx(p=(0, 3, 0, 0)), -9.0),
        ("(-p1)^2", ctx(p=(0, 3, 0, 0)), 9.0),
        ("2*L - m", ctx(m=1.0, L=4.0), 7.0),
    ],
)
def test_evaluate_examples(source, bindings, expected):
    assert evaluate(parse_integrand(source), bindings) == pytest.approx(expected)


def test_division_by_zero_reports_subexpression():
    with pytest.raises(EvaluationError, match="P2"):
        evaluate(parse_integrand("1/P2"), ctx())


def test_overflowing_quotient_is_refused():
    with pytest.raises(EvaluationError, match="non-finite quotient"):
        evaluate(parse_integrand("1e300/p0"), {"p0": np.array([1e-10])})


def test_vectorized_evaluation():
    bindings = ctx()
    bindings["p0"] = np.array([1.0, 2.0, 3.0])
    out = evaluate(parse_integrand("p0^2 + m"), bindings)
    assert np.array_equal(out, [1.0, 4.0, 9.0])


_leaves = st.one_of(
    st.floats(0.1, 50).map(lambda v: Num(round(v, 3))),
    st.sampled_from([Var(n) for n in integrand.VARIABLES + integrand.BUILTINS]),
)


def _trees(depth):
    if depth == 0:
        return _leaves
    sub = _trees(depth - 1)
    return st.one_of(
        _leaves,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: BinOp(*t)),
        sub.map(integrand.Neg),
        st.tuples(sub, st.integers(0, 4)).map(lambda t: integrand.Pow(*t)),
    )


@given(_trees(4))
@settings(max_examples=300, deadline=None)
def test_pretty_print_round_trip(tree):
    assert parse_integrand(pretty_print(tree)) == tree


@given(
    st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100)
)
def test_precedence_numeric(a, b, c):
    bindings = ctx(p=(a, b, c, 0))
    got = evaluate(parse_integrand("p0 + p1 * p2"), bindings)
    assert got == pytest.approx(a + b * c, rel=1e-14, abs=1e-12)


def _reference_eval(tree, bindings):
    # independent re-implementation: one recursive expression per node kind
    if isinstance(tree, Num):
        return tree.value
    if isinstance(tree, Var):
        if tree.name == "P2":
            return sum(bindings[f"p{i}"] ** 2 for i in range(4))
        if tree.name == "Q2":
            return sum(bindings[f"q{i}"] ** 2 for i in range(4))
        if tree.name == "PQ":
            return sum(bindings[f"p{i}"] * bindings[f"q{i}"] for i in range(4))
        return bindings[tree.name]
    if isinstance(tree, integrand.Neg):
        return -_reference_eval(tree.operand, bindings)
    if isinstance(tree, integrand.Pow):
        return _reference_eval(tree.base, bindings) ** tree.exponent
    lhs = _reference_eval(tree.left, bindings)
    rhs = _reference_eval(tree.right, bindings)
    return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
            "/": lhs / rhs if rhs != 0 else float("nan")}[tree.op]


@given(_trees(3), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_evaluator_matches_reference(tree, seed):
    rng = np.random.default_rng(seed)
    bindings = ctx(p=rng.uniform(0.5, 2, 4), q=rng.uniform(0.5, 2, 4),
                   m=rng.uniform(0.5, 2), L=rng.uniform(1, 2))
    expected = _reference_eval(tree, bindings)
    if not np.isfinite(expected) or abs(expected) > 1e300:
        return
    try:
        got = evaluate(tree, bindings)
    except EvaluationError:
        return
    assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_screen_clean_denominator():
    report = screen_singularities(parse_integrand("1/(P2+1)"), (0, 0, 0, 0), 0, 5.0)
    assert not report.flagged
    [(text, min_abs, sign_change)] = report.details
    assert text == "P2 + 1.0" and min_abs >= 1.0 and not sign_change


def test_screen_flags_origin_pole():
    report = screen_singularities(parse_integrand("1/P2"), (0, 0, 0, 0), 0, 1.0)
    assert report.flagged


def test_screen_flags_interior_zero_crossing():
    report = screen_singularities(parse_integrand("1/(P2 - 4)"), (0, 0, 0, 0), 0, 3.0)
    assert report.flagged
    assert any(sign_change for _, _, sign_change in report.details)


def test_screen_no_divisions():
    report = screen_singularities(parse_integrand("P2 + 1"), (0, 0, 0, 0), 0, 3.0)
    assert not report.flagged and report.details == ()


def meshgrid_scan_points(radius):
    """The scan grid of ``ballquad._scan_grid`` built on a full meshgrid, as
    it was before the trig was taken on the axis nodes: the reference."""
    r = radius * np.linspace(0.0, 1.0, 24) ** 2
    chi = np.linspace(0.0, np.pi, 10)
    theta = np.linspace(0.0, np.pi, 10)
    phi = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    r, chi, theta, phi = np.meshgrid(r, chi, theta, phi, indexing="ij")
    return {
        "p0": (r * np.cos(chi)).ravel(),
        "p1": (r * np.sin(chi) * np.cos(theta)).ravel(),
        "p2": (r * np.sin(chi) * np.sin(theta) * np.cos(phi)).ravel(),
        "p3": (r * np.sin(chi) * np.sin(theta) * np.sin(phi)).ravel(),
    }


@pytest.mark.parametrize("radius", [1e-300, 0.37, 10.0, 3.16e4, 1e5, 1e300])
def test_scan_points_match_the_meshgrid(radius):
    got = ballquad._scan_grid(radius)
    expected = meshgrid_scan_points(radius)
    assert got.keys() == expected.keys()
    for name, points in expected.items():
        assert got[name].shape == points.shape
        assert np.array_equal(got[name], points)
