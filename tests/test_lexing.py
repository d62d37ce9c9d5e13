"""The tokenizer against the one-pass `re.finditer` tokenizer of
tests/oracles.py: the same tokens, and the same first error."""

from hypothesis import given, settings, strategies as st

from quantalg.errors import ParseError
from quantalg.lexing import TokenStream

from oracles import TokenStreamReference

# Pieces of text: every token kind, blanks and comments (CRLF among them),
# characters no token starts with ($, é), Unicode digits (Arabic-Indic,
# Devanagari, fullwidth), numerals with a zero denominator, and numerals
# around the 4000-digit limit.
PIECES = st.one_of(
    st.sampled_from(list("(){},;:=@*[]<>|+-/#._'$é\t\n\r 0123456789xyz٣४５")),
    st.sampled_from(["->", "- >", "\r\n", "# a comment\r\n", "#", "conv", "rd", "x.y'", "_1",
                     "1/0", "3/00", "1/01", "0/0", "2/3", "٣/٠", "1/٠", "1/٠0", "1/0١", "inf",
                     "9" * 4001,
                     "1/" + "7" * 4001, "5" * 4000 + "/" + "5" * 4000, "\u00a0", "\u2028"]))


def _tokens(stream, text):
    """The (kind, text, pos) of each token, or the first error's message."""
    try:
        return [tuple(t) for t in stream(text, "<t>").tokens]
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECES, max_size=30).map("".join))
def test_the_tokens_are_those_of_one_finditer_pass(text):
    assert _tokens(TokenStream, text) == _tokens(TokenStreamReference, text)


def test_the_pieces_cover_each_outcome():
    # every token kind, and each of the three errors, from the pieces alone
    ts = TokenStream("conv(x -> 1/2, ٣) # é\r\n")
    assert {t.kind for t in ts.tokens} == {"ident", "punct", "arrow", "num", "eof"}
    assert ts.tokens[-3] == ("num", "٣", 15) and ts.tokens[-1] == ("eof", "", 23)
    for text, message in [("x\r\n$", "<t>:2: unexpected character '$'"),
                          ("é", "<t>:1: unexpected character 'é'"),
                          ("1 ٣/2 3/00", "<t>:1: zero denominator in '3/00'"),
                          ("1 ٣/2\n٣/٠", "<t>:2: zero denominator in '٣/٠'"),
                          ("1/٠0", "<t>:1: zero denominator in '1/٠0'"),
                          ("\n" + "9" * 4001, "<t>:2: numeral of more than 4000 digits")]:
        assert _tokens(TokenStream, text) == _tokens(TokenStreamReference, text) == message
