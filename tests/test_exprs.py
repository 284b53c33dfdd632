"""The expression language: parsing, errors, evaluation, round trips."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twisted_hecke.crossed import exponents_bounded
from twisted_hecke.cyclotomic import Cyclotomic, zeta_power
from twisted_hecke.exprs import (
    MAX_NESTING,
    BinOp,
    EvalError,
    Neg,
    Num,
    ParseError,
    Pow,
    Sym,
    _tokenize,
    eval_hecke,
    eval_laurent,
    eval_scalar,
    parse,
)
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra
from twisted_hecke.suite import random_hecke_elem

F = Fraction


@pytest.fixture(scope="module")
def H():
    return HeckeAlgebra(3, 2)


@pytest.fixture(scope="module")
def L():
    return LaurentAlgebra(3, 2)


def test_parse_commutator_shape():
    tree = parse("x1*x2 - x2*x1")
    assert tree == BinOp(
        "-",
        BinOp("*", Sym("x", 1), Sym("x", 2)),
        BinOp("*", Sym("x", 2), Sym("x", 1)),
    )


def test_parse_precedence():
    # ^ binds tighter than *, which binds tighter than +
    tree = parse("x1 + x2*x3^2")
    assert tree == BinOp("+", Sym("x", 1), BinOp("*", Sym("x", 2), Pow(Sym("x", 3), 2)))


def test_nodes_compare_by_exact_type_and_fields():
    x = Sym("x", 1)
    assert x == Sym("x", 1) and x != Sym("x", 2) and x != Sym("y", 1)
    assert Neg(x) != Pow(x, 1)
    assert Sym("x", 1) != ("x", 1)
    assert Num(F(1)) != F(1)
    assert x.__eq__(("x", 1)) is NotImplemented
    assert Num(F(1)).__eq__(Sym("x", 1)) is NotImplemented
    # a subclass is another type, whatever its fields
    assert type("SubSym", (Sym,), {})("x", 1) != x
    assert parse("x1 + 2*x2") == BinOp("+", x, BinOp("*", Num(F(2)), Sym("x", 2)))
    assert parse("x1 + 2*x2") != parse("x1 - 2*x2")


def test_equal_nodes_hash_equal():
    assert hash(Sym("t", 2)) == hash(Sym("t", 2))
    assert hash(parse("(x1 + x2)^2")) == hash(parse("( x1+x2 ) ^ 2"))
    assert len({parse("-x1*g2"), parse("-x1 * g2"), parse("-(x1*g2)")}) == 2


def test_node_reprs():
    assert repr(parse("-x1 + 1/2*y2^-1")) == (
        "BinOp(op='+', lhs=Neg(arg=Sym(kind='x', index=1)), rhs=BinOp(op='*', "
        "lhs=Num(value=Fraction(1, 2)), rhs=Pow(base=Sym(kind='y', index=2), exp=-1)))"
    )
    assert repr(parse("(zeta - 3)^2")) == (
        "Pow(base=BinOp(op='-', lhs=Sym(kind='zeta', index=0), "
        "rhs=Num(value=Fraction(3, 1))), exp=2)"
    )


def test_nodes_are_frozen():
    tree = parse("-x1^2 + 3")
    for node, field in (
        (tree, "op"),
        (tree.lhs, "arg"),
        (tree.lhs.arg, "exp"),
        (tree.lhs.arg.base, "index"),
        (tree.rhs, "value"),
    ):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = None
    assert tree == parse("-x1^2 + 3")


def test_nodes_copy_and_pickle():
    tree = parse("-x1^2*g2^-1 + 1/3*zeta")
    assert copy.copy(tree) == tree and copy.deepcopy(tree) == tree
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(tree, protocol)) == tree


def test_parse_negative_exponent_on_y():
    tree = parse("y2^-1 * g1")
    assert tree == BinOp("*", Pow(Sym("y", 2), -1), Sym("g", 1))


def test_parse_rational_literals():
    assert parse("3/4") == Num(F(3, 4))
    assert parse("(1/2)*t1") == BinOp("*", Num(F(1, 2)), Sym("t", 1))


def test_negative_exponent_rejected_off_y_and_g():
    for text in ("x1^-1", "t1^-2", "zeta^-1", "(y1*g2)^-1"):
        with pytest.raises(ParseError):
            parse(text)
    # parenthesizing a bare y-atom is transparent, so this stays legal
    parse("(y1)^-1")
    # positions are reported
    try:
        parse("x1^-1")
    except ParseError as e:
        assert e.pos == 4


def test_juxtaposition_is_an_error():
    with pytest.raises(ParseError):
        parse("x1 x2")


def test_unbalanced_and_stray_tokens():
    with pytest.raises(ParseError):
        parse("(x1 + x2")
    with pytest.raises(ParseError):
        parse("x1 + ")
    with pytest.raises(ParseError):
        parse("q17")
    with pytest.raises(ParseError):
        parse("x1 @ x2")


def test_whitespace_insensitive(H):
    assert eval_hecke("x1 * x2", H) == eval_hecke("x1*x2", H)


def test_eval_hecke_examples(H):
    assert eval_hecke("x2*x1", H) == H.mul(H.gen_x(2), H.gen_x(1))
    assert eval_hecke("0*x1", H).is_zero()
    assert eval_hecke("zeta*x1", H) == H.gen_x(1).scale(H.ring.zeta())
    assert eval_hecke("t1*g1", H) == H.monomial((0, 0, 0), None, H.ring.t(1)) * H.gen_g(1)
    assert eval_hecke("-x1", H) == -H.gen_x(1)
    assert eval_hecke("g1^-1", H) == eval_hecke("g1", H)  # ell = 2


def test_eval_laurent_examples(L):
    got = eval_laurent("g1*y1", L)
    assert got == L.lmul(L.gen_g(1), L.gen_y(1))
    assert eval_laurent("y1^-1", L) == L.gen_y(1, -1)


def test_eval_rejects_wrong_atoms(H, L):
    with pytest.raises(EvalError):
        eval_hecke("y1", H)
    with pytest.raises(EvalError):
        eval_laurent("x1", L)
    with pytest.raises(EvalError):
        eval_hecke("x4", H)
    with pytest.raises(EvalError):
        eval_hecke("t5*x1", H)


def test_eval_scalar():
    assert eval_scalar("1/2", 4) == Cyclotomic.from_rational(4, F(1, 2))
    assert eval_scalar("zeta*zeta", 4) == zeta_power(4, 2)
    assert eval_scalar("1 - zeta", 4) == Cyclotomic.one(4) - zeta_power(4, 1)
    with pytest.raises(EvalError):
        eval_scalar("t1", 4)


def test_roundtrip_golden(H, L):
    for text in (
        "x1*x2 - t1*g1",
        "x1*x2*x3 - (1/2)*t2*x1*g2 + (1/2)*t3*x2*g2*g1 - (1/2)*t1*x3*g1",
    ):
        assert eval_hecke(text, H).render() == text
    assert eval_laurent("y1 - (1/2)*t1*y2^-1*g1", L).render() == "y1 - (1/2)*t1*y2^-1*g1"


def test_roundtrip_random_elements():
    rng = random.Random(11)
    for n, ell in [(3, 2), (4, 3)]:
        H = HeckeAlgebra(n, ell)
        L = LaurentAlgebra(n, ell)
        for _ in range(25):
            elem = random_hecke_elem(H, rng)
            text = elem.render()
            assert eval_hecke(text, H) == elem
            assert eval_hecke(text, H).render() == text
            img = L.theta(elem)
            text = img.render()
            assert eval_laurent(text, L) == img
            assert eval_laurent(text, L).render() == text


def test_long_sums_and_products_evaluate():
    # a + b + c ... and a * b * c ... parse as left-nested chains, which the
    # evaluator walks in a loop, so their length sets no recursion depth: a
    # rendering of 1,140 terms reads back as its element, and 2,000 summands
    # and 2,000 factors evaluate
    H = HeckeAlgebra(3, 2)
    one, tz = H.ring.unit, H.ring.t_zero
    elem = H.elem_type(H, {(p, 0, tz): one for p in exponents_bounded(3, 17)})
    assert len(elem.terms) == 1140
    assert eval_hecke(elem.render(), H) == elem
    assert eval_scalar("+".join(["1"] * 2000), 5) == Cyclotomic.from_rational(5, 2000)
    assert eval_scalar("*".join(["zeta"] * 2000), 5) == zeta_power(5, 2000)


@pytest.mark.parametrize(
    "text", ["(" * 300 + "1" + ")" * 300, "-" * 2000 + "1"], ids=["parentheses", "signs"]
)
def test_nesting_too_deep_is_a_parse_error(text):
    with pytest.raises(ParseError, match=r"^expression nested too deeply at position \d+$"):
        parse(text)


def parse_error_text(text, frames=0):
    """The ParseError message of parse(text), called ``frames`` calls deeper."""
    if frames:
        return parse_error_text(text, frames - 1)
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value)


def test_nesting_error_is_the_same_at_any_stack_depth():
    # the parser counts its own nesting, so the error names the opening
    # token that crosses MAX_NESTING: the same text from the CLI, from parse
    # at the top of a test and from parse 100 calls deeper
    text = "(" * 300 + "x1" + ")" * 300
    expected = f"expression nested too deeply at position {MAX_NESTING}"
    assert parse_error_text(text) == expected
    assert parse_error_text(text, frames=100) == expected
    # signs and parentheses count alike: one character per level here too
    assert parse_error_text("-(" * MAX_NESTING + "x1") == expected
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "twisted_hecke.cli", "normalize", "--n", "3", "--ell", "2", text],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {expected}\n"


def test_nesting_at_the_bound_parses_and_evaluates():
    # MAX_NESTING open levels, of parentheses, of signs and of both mixed,
    # parse and evaluate, also when called 100 frames deep; one more does not
    H = HeckeAlgebra(3, 2)
    k = MAX_NESTING
    cases = {
        "(" * k + "x1" + ")" * k: H.gen_x(1),
        "-" * k + "x1": H.gen_x(1) if k % 2 == 0 else -H.gen_x(1),
        "-(" * (k // 2) + "x2*x1" + ")" * (k // 2): H.mul(H.gen_x(2), H.gen_x(1)),
        "(x1*" * (k - 1) + "(x1)" + ")" * (k - 1): H.gen_x(1) ** k,
    }

    def deep(frames, text):
        return eval_hecke(parse(text), H) if not frames else deep(frames - 1, text)

    for text, expected in cases.items():
        assert deep(0, text) == expected
        assert deep(100, text) == expected
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" + text + ")")


def test_atoms_cost_no_algebra_product(monkeypatch):
    # every atom, raised to any exponent, is built as a single term
    H = HeckeAlgebra(3, 3)
    powers = {
        "x1^2": H.gen_x(1) * H.gen_x(1),
        "t1^3": H.scalar(H.ring.t(1)) ** 3,
        "zeta^2": H.scalar(zeta_power(3, 1)) ** 2,
        "g1^2": H.gen_g(1) * H.gen_g(1),
    }
    calls = []
    original = HeckeAlgebra.mul

    def counting_mul(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(HeckeAlgebra, "mul", counting_mul)
    for text in ("x1", "t2", "zeta", "g1"):
        eval_hecke(text, H)
    for text, expected in powers.items():
        assert eval_hecke(text, H) == expected, text
    assert calls == []
    assert eval_hecke("x1^2", H) == H.gen_x(1) * H.gen_x(1)
    assert len(calls) == 1  # the product on the right


def test_t_atoms_keep_the_ring_unit_and_their_values():
    specialized = (Cyclotomic.from_rational(3, 2), zeta_power(3, 1), eval_scalar("-1/2", 3))
    for t_values in (None, specialized):
        H = HeckeAlgebra(3, 3, t_values)
        L = LaurentAlgebra(3, 3, t_values)
        for alg, evaluate in ((H, eval_hecke), (L, eval_laurent)):
            ring = alg.ring
            assert evaluate("t2^0", alg) == alg.one()
            for i in (1, 3):
                for k in (1, 2, 5):
                    atom = evaluate(f"t{i}^{k}", alg)
                    assert atom == alg.scalar(ring.t(i) ** k), (t_values, i, k)
                    if t_values is None:
                        ((key, c),) = atom.terms.items()
                        assert key[2] == tuple(k if j == i - 1 else 0 for j in range(3))
                        assert c is ring.unit
                    else:
                        assert atom == alg.scalar(t_values[i - 1] ** k)


def test_t_atoms_with_a_negative_exponent_are_rejected():
    # the parser never builds t^-1; a hand-built one is an error, not t^0
    for t_values in (None, tuple(Cyclotomic.from_rational(2, q) for q in (2, 1, 3))):
        for alg, evaluate in (
            (HeckeAlgebra(3, 2, t_values), eval_hecke),
            (LaurentAlgebra(3, 2, t_values), eval_laurent),
        ):
            for k in (-1, -2):
                with pytest.raises(EvalError) as err:
                    evaluate(Pow(Sym("t", 1), k), alg)
                assert str(err.value) == "negative exponent on t1"


@pytest.mark.parametrize(
    "text, mode, message",
    [
        ("y1", "hecke","y-generators are not valid in the Hecke algebra"),
        ("x1", "laurent", "x-generators are not valid in the Laurent algebra"),
        # the algebra is checked before the index
        ("x9", "laurent", "x-generators are not valid in the Laurent algebra"),
        ("x4", "hecke", "x4 out of range 1..3"),
        ("x4^2", "hecke", "x4 out of range 1..3"),
        ("y4", "laurent", "y4 out of range 1..3"),
        ("y4^-1", "laurent", "y4 out of range 1..3"),
        ("t5", "hecke", "t5 out of range 1..3"),
        ("t5^2", "laurent", "t5 out of range 1..3"),
        ("g5", "hecke", "g5 out of range 1..3"),
        ("g5^-1", "laurent", "g5 out of range 1..3"),
    ],
)
def test_eval_error_messages(H, L, text, mode, message):
    with pytest.raises(EvalError) as err:
        eval_hecke(text, H) if mode == "hecke" else eval_laurent(text, L)
    assert str(err.value) == message


def test_unknown_symbol_kind_is_rejected(H, L):
    for tree in (Sym("q", 1), Pow(Sym("q", 1), 2)):
        for evaluate, alg in ((eval_hecke, H), (eval_laurent, L)):
            with pytest.raises(EvalError) as err:
                evaluate(tree, alg)
            assert str(err.value) == "unknown symbol kind 'q'"


def test_eval_rejects_the_other_algebra(H, L):
    # each evaluator reads its generator letter from the algebra it is handed
    with pytest.raises(TypeError):
        eval_hecke("x2*x1", LaurentAlgebra(3, 2))
    with pytest.raises(TypeError):
        eval_laurent("y1*y2", HeckeAlgebra(3, 2))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "zero denominator in literal at position 0"),
        ("x1^x2", "unexpected token 'x2' at position 3 (expected an integer exponent)"),
        ("x1^1/2", "unexpected token '1/2' at position 3 (expected an integer exponent)"),
    ],
)
def test_literal_and_exponent_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_power_of_a_sum_expands(H):
    assert eval_hecke("(x1+x2)^2", H).render() == "x1^2 + 2*x1*x2 + x2^2 - t1*g1"


def test_hand_built_trees_are_checked(H):
    # the parser never builds these, but a tree handed in directly is checked
    with pytest.raises(EvalError) as err:
        eval_hecke(Pow(BinOp("+", Sym("x", 1), Sym("x", 2)), -1), H)
    assert str(err.value) == "negative exponent on a compound expression"
    with pytest.raises(TypeError, match="not an expression node"):
        eval_hecke(BinOp("*", Sym("x", 1), 2), H)


# the tokenizer as a match loop that strips whitespace to find a stray
# character, the form the single finditer pass replaced
_LOOP_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*^()]))"
)
_LOOP_NAME = re.compile(r"^(zeta|[xygt]\d+)$")


def _loop_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _LOOP_TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        pos = match.end()
        if match.lastgroup == "num":
            raw = match.group("num").replace(" ", "")
            if "/" in raw:
                a, b = raw.split("/")
                if int(b) == 0:
                    raise ParseError("zero denominator in literal", match.start("num"))
                value = Fraction(int(a), int(b))
            else:
                value = Fraction(int(raw))
            tokens.append(("num", value, match.start("num")))
        elif match.lastgroup == "name":
            name = match.group("name")
            if not _LOOP_NAME.match(name):
                raise ParseError(
                    f"unknown name {name!r}",
                    match.start("name"),
                    "zeta, x<i>, y<i>, g<i> or t<i>",
                )
            tokens.append(("name", name, match.start("name")))
        else:
            op = match.group("op")
            tokens.append((op, op, match.start("op")))
    tokens.append(("end", None, len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.pos


def test_tokenizer_matches_the_match_loop():
    rng = random.Random(14)
    alphabet = "0123456789//xygtzetaq*+-^()   @"
    outcomes = set()
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        expected = _tokens_or_error(_loop_tokenize, text)
        assert _tokens_or_error(_tokenize, text) == expected, text
        outcomes.add(expected[0][:12] if isinstance(expected, tuple) else "tokens")
    # the strings reach the token list and every kind of error
    assert {"tokens", "unexpected c", "unknown name", "zero denomin"} <= outcomes
