import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quantalg import (App, Bary, ParamPool, Var, app, axioms, bind, conv, denote,
                      format_term, markov_process_theory, next_op, parse_term,
                      parse_theory, raise_, read, write)
from quantalg.terms import empty_op, union_op
from quantalg.errors import DomainError, ParseError

MP = markov_process_theory(Fraction(1, 2))


def test_opsym_arities():
    assert conv(Fraction(1, 2)).arity == 2
    assert raise_("*").arity == 0
    assert read(3).arity == 3
    assert write(Fraction(2)).arity == 1
    assert next_op("next", Fraction(1, 2)).arity == 1
    with pytest.raises(ValueError):
        conv(Fraction(3, 2))
    with pytest.raises(ValueError):
        App(read(2), (Var("x"),))


def test_each_family_prints_as_before():
    x, y, z = Var("x"), Var("y"), Var("z")
    cases = [
        (conv(Fraction(1, 2)), (x, y), "conv(1/2)", "conv(1/2, x, y)"),
        (raise_("*"), (), "raise(*)", "raise(*)"),
        (union_op(), (x, y), "union", "union(x, y)"),
        (empty_op(), (), "empty", "empty"),
        (read(3), (x, y, z), "rd", "rd(x, y, z)"),
        (write("z"), (x,), "wr(z)", "wr(z, x)"),
        (write(Fraction(-1, 2)), (x,), "wr(-1/2)", "wr(-1/2, x)"),
        (next_op(), (x,), "next", "next(x)"),
        (next_op("step", Fraction(1, 3)), (x,), "step", "step(x)"),
    ]
    for op, args, symbol, term in cases:
        assert (str(op), format_term(App(op, args))) == (symbol, term)
    labels = {ax.label for ax in axioms(parse_theory("tensor(bary, reader{i, j})"),
                                        ParamPool.make(weights=["1/2"]))}
    assert "Com[conv(1/2),rd]" in labels


def test_parse_and_format_round_trip():
    texts = [
        "x",
        "raise(*)",
        "empty",
        "conv(1/2, x, y)",
        "union(x, union(y, empty))",
        "rd(x, y)",
        "wr(2, wr(3, x))",
        "next(conv(1/2, raise(*), x))",
    ]
    for text in texts:
        t = parse_term(text)
        assert parse_term(format_term(t)) == t


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as e:
        parse_term("conv(3/2, x, y)")
    assert "[0,1]" in str(e.value)
    with pytest.raises(ParseError):
        parse_term("conv(1/2, x)")
    with pytest.raises(ParseError):
        parse_term("wr(, x)")


def test_parse_resolves_against_theory():
    t = parse_term("next(raise(*))", MP)
    assert t.op.param == ("next", Fraction(1, 2))


def test_bind_base_and_homomorphic():
    t = parse_term("conv(1/2, x, y)")
    s = bind(t, {"x": parse_term("raise(*)")})
    assert s == parse_term("conv(1/2, raise(*), y)")
    assert bind(Var("x"), {"x": parse_term("raise(*)")}) == parse_term("raise(*)")
    # missing keys are identity
    assert bind(t, {}) == t


def test_bind_writer_stacks_then_normalizes_later():
    t = bind(parse_term("wr(2, x)"), {"x": parse_term("wr(3, y)")})
    assert t == parse_term("wr(2, wr(3, y))")


def test_bind_monad_laws_randomized():
    rng = random.Random(7)
    from helpers import random_term

    X = ["x", "y", "z"]
    for _ in range(60):
        t = random_term(rng, MP, X, 3)
        sigma = {v: random_term(rng, MP, X, 2) for v in X}
        tau = {v: random_term(rng, MP, X, 1) for v in X}
        composed = {v: bind(sigma[v], tau) for v in X}
        assert bind(bind(t, sigma), tau) == bind(t, composed)
        assert bind(t, {v: Var(v) for v in X}) == t


def test_well_formed_examples():
    # a term is well formed when it denotes; an operation outside the
    # theory is a DomainError
    denote(parse_term("conv(1/2, x, y)"), Bary())
    with pytest.raises(DomainError) as e:
        denote(app(read(2), Var("x"), Var("y")), Bary())
    assert "rd" in str(e.value)
    with pytest.raises(DomainError):
        denote(parse_term("next(x)"), MP)  # unresolved contraction
    denote(parse_term("next(x)", MP), MP)


def test_well_formed_preserved_by_bind():
    rng = random.Random(3)
    from helpers import random_term

    X = ["x", "y"]
    for _ in range(40):
        t = random_term(rng, MP, X, 3)
        sigma = {v: random_term(rng, MP, X, 2) for v in X}
        denote(t, MP)
        denote(bind(t, sigma), MP)


@pytest.mark.parametrize("theory", [
    "sum(sum(bary, exc{1}), contr{step, 1/2})",
    "sum(sum(sum(bary, exc{1}), contr{a, 1/2}), contr{b, 1/3})",
    "sum(tensor(tensor(semi, writer{q}), reader{i, j}),"
    " sum(sum(exc{e, f}, contr{a, 1/2}), contr{b, 1/3}))",
])
@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 4))
def test_format_term_round_trips_under_named_contractions(theory, rng, depth):
    from helpers import random_term

    th = parse_theory(theory)
    t = random_term(rng, th, ["x", "y"], depth)
    assert parse_term(format_term(t), th) == t
