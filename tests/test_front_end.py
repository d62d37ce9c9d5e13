"""The shared front end of the six text formats: the tokenizer's error lines,
and random edits of one ordinary file per format, which each parser must
either read or reject with a QuantAlgError."""

import pytest
from hypothesis import given, settings, strategies as st

from quantalg import (ParseError, parse_algebras, parse_coalgebras, parse_monoids,
                      parse_spaces, parse_term, parse_theory)
from quantalg.cli import main
from quantalg.errors import QuantAlgError
from quantalg.lexing import MAX_DIGITS, TokenStream

SPACE = """\
space S { points: p, q, r;
  d(p,q) = 1/2; d(q,r) = 1; d(p,r) = 3/2; }
"""
MONOID = """\
monoid M { elements: z, a; unit = z;
  mult(z,z) = z; mult(z,a) = a; mult(a,z) = a; mult(a,a) = a;
  d(z,a) = 1; }
"""
ALGEBRA = """\
algebra A {
  carrier: S;
  op conv(1/2): (p, p) -> p; (p, q) -> q; (q, p) -> q; (q, q) -> q;
  op rd(2): (p, q) -> p;
  op wr(z): (p) -> q;
  op raise(*): -> r;
  op next(n, 1/2): (r) -> p;
}
"""
COALGEBRA = """\
mp P { c = 1/2; state u: 1/2 -> u, 1/2 -> bot; state v: 1 -> leaf(p); }
mealy Y { c = 1/3; inputs: i, j; monoid: M;
  state s on i -> (s, a); state s on j -> (t, z);
  state t on i -> (t, z); state t on j -> (s, a); }
mdp D { c = 9/10; actions: a;
  state x on a: 1/4 -> (x, 1), 3/4 -> (y, 1/2);
  state y on a: 1 -> (y, 0); }
"""
THEORY = ("sum(tensor(tensor(bary, writer{M}), reader{i, j}),"
          " sum(sum(exc{S}, contr{n, 1/2}), contr{m, 1/3}))")
TERM = "conv(1/3, rd(n(x), wr(a, raise(p))), m(conv(1, y, raise(q))))"

_SPACES = parse_spaces(SPACE)
_MONOIDS = parse_monoids(MONOID)
_THEORY = parse_theory(THEORY, _SPACES, _MONOIDS)

FORMATS = {
    "term": (TERM, lambda text: parse_term(text, _THEORY)),
    "theory": (THEORY, lambda text: parse_theory(text, _SPACES, _MONOIDS)),
    "space": (SPACE, parse_spaces),
    "monoid": (MONOID, parse_monoids),
    "algebra": (ALGEBRA, lambda text: parse_algebras(text, _SPACES)),
    "coalgebra": (COALGEBRA, lambda text: parse_coalgebras(text, _MONOIDS, _SPACES["S"])),
}

# What an edit inserts: single characters, odd ones included, and words of
# the formats.
PIECES = st.one_of(
    st.sampled_from(list("(){},;:=-*/#\n 0123456789pqrxyzaijs_.'$é\t")),
    st.sampled_from(["->", "inf", "bot", "leaf", "state", "on", "space", "monoid", "algebra",
                     "mp", "lmp", "mealy", "mdp", "op", "next", "rd", "wr", "conv", "raise",
                     "union", "empty", "exc{", "1/0", "0", "2/3", "d(p,p) = 1;"]))


@st.composite
def edited(draw, text):
    """`text` with one to four random insertions, deletions or replacements."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.one_of(st.just(""), PIECES)) + text[at + cut:]
    return text


def test_the_ordinary_files_parse():
    for text, parse in FORMATS.values():
        parse(text)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_an_edited_file_is_read_or_rejected_with_a_quantalg_error(fmt, data):
    text, parse = FORMATS[fmt]
    try:
        parse(data.draw(edited(text)))
    except QuantAlgError:
        pass


@pytest.mark.parametrize("text, message", [
    ("x\n\n  $", "<input>:3: unexpected character '$'"),
    ("a # $ in a comment\n1/00", "<input>:2: zero denominator in '1/00'"),
    ("x\n1/1" + "0" * 4000, "<input>:2: numeral of more than 4000 digits"),
    ("1/0", "<input>:1: zero denominator in '1/0'"),
    ("a\n3/00", "<input>:2: zero denominator in '3/00'"),
    ("1/01 # /0\n\n" + "7" * (MAX_DIGITS + 1), "<input>:3: numeral of more than 4000 digits"),
    ("a \t\n  \t$", "<input>:2: unexpected character '$'"),
    ("1/0 $", "<input>:1: zero denominator in '1/0'"),
    ("a\n$ 1/0", "<input>:2: unexpected character '$'"),
])
def test_the_tokenizer_reports_the_first_bad_token_with_its_line(text, message):
    with pytest.raises(ParseError) as e:
        TokenStream(text)
    assert str(e.value) == message


def test_whitespace_and_comments_end_in_one_eof_token():
    # each token's match takes the whitespace and comments before it, so
    # trailing ones go with the end of input, however long the run
    spaces = " " * 10 ** 5
    for text, tokens in [("a  # end", ["a"]), ("a\n\t# end", ["a"]), ("a b\n", ["a", "b"]),
                         ("#", []), ("", []), (spaces, []), ("a" + spaces + "\nb", ["a", "b"]),
                         (spaces + "$" + spaces, None), ("1/01 2/10", ["1/01", "2/10"])]:
        if tokens is None:
            with pytest.raises(ParseError) as e:
                TokenStream(text)
            assert str(e.value) == "<input>:1: unexpected character '$'"
            continue
        ts = TokenStream(text)
        assert [t.text for t in ts.tokens] == tokens + [""]
        eof = ts.tokens[-1]
        assert (eof.kind, eof.pos, ts.line(eof)) == ("eof", len(text), text.count("\n") + 1)


def test_a_numeral_part_may_have_4000_digits():
    big = "9" * 4000
    assert parse_term(f"conv({big}/{big}, x, y)").op.param == 1


def test_a_token_line_is_counted_from_its_offset():
    ts = TokenStream("a\n# b\n\n  c d")
    assert [(t.text, ts.line(t)) for t in ts.tokens] == [("a", 1), ("c", 4), ("d", 4), ("", 4)]


_MP_THEORY = "sum(sum(bary, exc{1}), contr{next, 1/2})"


@pytest.mark.parametrize("kind, text, message", [
    ("term", "union(x)", "term-1:2: expected ',', found ')'"),
    ("term", "union(x, y, z)", "term-1:2: expected ')', found ','"),
    ("term", "rd()", "term-1:2: expected a term, found ')'"),
    ("term", "rd(x,)", "term-1:2: expected a term, found ')'"),
    ("term", "conv(1/2, x)", "term-1:2: expected ',', found ')'"),
    ("term", "conv(2, x, y)", "term-1:2: conv weight 2 outside [0,1]"),
    ("term", "raise()", "term-1:2: expected exception label, found ')'"),
    ("term", "wr(x)", "term-1:2: expected ',', found ')'"),
    ("term", "empty(x)", "term-1:2: trailing input starting at '('"),
    ("term", "next()", "term-1:2: expected a term, found ')'"),
    ("term", "next(x, y)", "term-1:2: expected ')', found ','"),
    ("term", ")", "term-1:2: expected a term, found ')'"),
    ("term", "", "term-1:2: expected a term, found 'end of input'"),
    ("op", "op foo:", "A.alg:3: unknown operation 'foo'"),
    ("op", "op rd(0):", "A.alg:3: rd arity 0 is not a positive integer"),
    ("op", "op rd(1/2):", "A.alg:3: rd arity 1/2 is not a positive integer"),
    ("op", "op next(n, 1):", "A.alg:3: contraction factor 1 outside (0,1)"),
    ("op", "op union(", "A.alg:3: expected ':', found '('"),
])
def test_a_malformed_operation_is_a_parse_error_at_its_line(kind, text, message, tmp_path,
                                                             capsys):
    """The first error of a malformed form of each family, in a term (on
    its second line) and in an algebra file's `op` header (on line 3)."""
    if kind == "term":
        argv = ["dist", "--theory", _MP_THEORY, "--inline", "\n" + text, "x"]
    else:
        (tmp_path / "S.space").write_text("space S { points: p, q; d(p,q) = 1; }\n")
        (tmp_path / "A.alg").write_text(f"algebra A {{\n  carrier: S;\n  {text}\n}}\n")
        argv = ["check-model", "--theory", "bary", "--space", str(tmp_path / "S.space"),
                str(tmp_path / "A.alg")]
    assert main(argv) == 2
    err = capsys.readouterr().err.replace(str(tmp_path) + "/", "")
    assert err == f"parse error: {message}\n"
