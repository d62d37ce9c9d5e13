"""The shared front end of the six text formats: a tokenizer (one `re.findall`
for the token texts, a dict over the distinct ones for their kinds, running
sums of the matched lengths for their offsets; a token's line is counted only
when an error names it) and the rules every format reads through it, such as
comma lists (`expect_list`) and files of `KEYWORD NAME { ... }` blocks (`blocks`)."""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import add
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union

from .errors import DomainError, ParseError
from .extvalue import INF, ExtValue

# A token's kind: the first of these to match it whole, the most common first.
_KINDS = r"""(?P<punct>[(){},;:=@*\[\]<>|+]|-(?!>)) | (?P<ident>[A-Za-z_][A-Za-z0-9_.']*)
             | (?P<num>\d+(?:/\d+)?) | (?P<arrow>->) | (?P<bad>.) | (?P<eof>\Z)"""
_KIND_RE = re.compile(_KINDS, re.VERBOSE | re.DOTALL)
# A match is the blanks and comments before a token, then the token; past
# them some token matches (eof at the end), so no match backtracks into them.
_TOKEN_RE = re.compile(r"((?:\s|\#[^\n]*)*)(" + re.sub(r"\?P<\w+>", "?:", _KINDS) + ")",
                       re.VERBOSE | re.DOTALL)
# The most digits a numeral's numerator or denominator, or a --decimal
# rendering, may have: Python's guard against hostile input converts no int
# of more than 4300 digits to or from text.
MAX_DIGITS = 4000

T = TypeVar("T")


class Token(NamedTuple):
    kind: str  # 'num' | 'ident' | 'punct' | 'arrow' | 'eof'
    text: str
    pos: int  # offset in the text; TokenStream.line gives its line


class TokenStream:
    def __init__(self, text: str, source: str = "<input>"):
        self.source = source
        self.text = text
        found = _TOKEN_RE.findall(text)
        if len(found) > 1 and not found[-2][1]:
            del found[-1]  # findall's empty match at the end, after trailing blanks
        blanks, texts = zip(*found)
        kinds = {t: _KIND_RE.fullmatch(t).lastgroup for t in set(texts)}
        # a token's offset: the lengths of the texts before it, and of the blanks up to it
        offsets = map(add, accumulate(map(len, texts), initial=0), accumulate(map(len, blanks)))
        self.tokens: List[Token] = list(map(partial(tuple.__new__, Token), zip(
            map(kinds.__getitem__, texts), texts, offsets)))
        # an error needs a bad character, a long text, or a zero denominator (any script's digits)
        suspect = ("bad" in kinds.values() or len(text) > MAX_DIGITS or "/0" in text
                   or not text.isascii())
        for tok in self.tokens if suspect else ():
            if tok.kind == "bad":
                raise self.error(f"unexpected character {tok.text!r}", tok)
            if tok.kind == "num":
                if len(tok.text) > MAX_DIGITS and max(map(len, tok.text.split("/"))) > MAX_DIGITS:
                    raise self.error(f"numeral of more than {MAX_DIGITS} digits", tok)
                if "/" in tok.text and not int(tok.text.partition("/")[2]):
                    raise self.error(f"zero denominator in {tok.text!r}", tok)
        self.i = 0

    def line(self, tok: Token) -> int:
        return self.text.count("\n", 0, tok.pos) + 1

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        return ParseError(message, self.source, self.line(tok or self.peek()))

    def expect(self, *texts: str):
        """The tokens `texts`, in order."""
        for text in texts:
            tok = self.next()
            if tok.text != text:
                raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.error(f"expected identifier, found {tok.text or 'end of input'!r}", tok)
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def expect_rational(self) -> Fraction:
        return Fraction(*self.expect_ratio())

    def expect_ratio(self) -> Tuple[int, int]:
        """A rational as the ints (n, d) of its numeral n/d (d is 1 if absent)."""
        tok = self.next()
        if tok.kind != "num":
            raise self.error(f"expected rational, found {tok.text or 'end of input'!r}", tok)
        n, _, d = tok.text.partition("/")
        return int(n), int(d or 1)

    def expect_ext(self) -> ExtValue:
        """A rational or `inf`."""
        tok = self.next()
        if tok.text == "inf":
            return INF
        if tok.kind != "num":
            raise self.error(f"expected rational or inf, found {tok.text or 'end of input'!r}", tok)
        return ExtValue(Fraction(tok.text))

    def expect_label(self, what: str) -> str:
        """A point, exception label or carrier element: identifier, numeral or `*`."""
        tok = self.next()
        if tok.kind not in ("ident", "num") and tok.text != "*":
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return tok.text

    def expect_element(self) -> Union[Fraction, str]:
        """A monoid element: a rational of the rational line, or a table element name."""
        tok = self.next()
        if tok.kind == "num":
            return Fraction(tok.text)
        if tok.kind != "ident":
            raise self.error(f"expected monoid element, found {tok.text or 'end of input'!r}", tok)
        return tok.text

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"trailing input starting at {tok.text!r}", tok)

    def expect_list(self, item: Callable[[], T]) -> List[T]:
        """One or more `item()`s separated by commas; no trailing comma."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def blocks(self, what: str, keywords: Sequence[str],
               body: Callable[[str, str], T]) -> Dict[str, T]:
        """NAME -> `body(KEYWORD, NAME)` for the `KEYWORD NAME { ... }` blocks
        that fill the input, where the body reads between the braces; a NAME
        given twice is a ParseError, and a body's DomainError is prefixed with
        `SOURCE: what NAME:`."""
        out: Dict[str, T] = {}
        while not self.at(""):
            kw = self.next()
            if kw.text not in keywords:
                raise self.error(f"expected {'/'.join(keywords)}, found {kw.text!r}", kw)
            tok = self.expect_ident()
            name = tok.text
            if name in out:
                raise self.error(f"duplicate {what} {name!r}", tok)
            self.expect("{")
            try:
                out[name] = body(kw.text, name)
            except DomainError as exc:
                raise DomainError(f"{self.source}: {what} {name}: {exc}") from None
            self.expect("}")
        return out
