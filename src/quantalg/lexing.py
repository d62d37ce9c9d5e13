"""The shared front end of the six text formats: a tokenizer and the rules
every format reads through it, such as comma lists (`expect_list`) and files
of `KEYWORD NAME { ... }` blocks (`blocks`).

A `TokenStream` is the token texts of one `re.findall`, a dict over the
distinct texts for their kinds, and an int cursor.  No object is made per
token: a reader holds a token's index, and the token's offset and line are
computed only when an error names it, by matching the text again up to it."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from .errors import DomainError, ParseError
from .extvalue import INF, ExtValue

# A token's kind: the first of these to match it whole, the most common first.
_KINDS = r"""(?P<punct>[(){},;:=@*\[\]<>|+]|-(?!>)) | (?P<ident>[A-Za-z_][A-Za-z0-9_.']*)
             | (?P<num>\d+(?:/\d+)?) | (?P<arrow>->) | (?P<bad>.) | (?P<eof>\Z)"""
_KIND_RE = re.compile(_KINDS, re.VERBOSE | re.DOTALL)
# A match is the blanks and comments before a token, then the token, its one
# group; past them some token matches (eof at the end), so no match
# backtracks into them.
_TOKEN_RE = re.compile(r"(?:\s|\#[^\n]*)*(" + re.sub(r"\?P<\w+>", "?:", _KINDS) + ")",
                       re.VERBOSE | re.DOTALL)
# The most digits a numeral's numerator or denominator, or a --decimal
# rendering, may have: Python's guard against hostile input converts no int
# of more than 4300 digits to or from text.
MAX_DIGITS = 4000

T = TypeVar("T")


class TokenStream:
    """The tokens of `text`: `texts[k]` is token k's text, the last one ""
    (the end of input, which no other token's text is), `kinds` maps each
    text to its kind ('num' | 'ident' | 'punct' | 'arrow' | 'eof'), and `i`
    is the cursor, which never passes the end of input."""

    def __init__(self, text: str, source: str = "<input>"):
        self.source = source
        self.text = text
        self.texts: List[str] = _TOKEN_RE.findall(text)
        if len(self.texts) > 1 and not self.texts[-2]:
            del self.texts[-1]  # findall's empty match at the end, after trailing blanks
        self.kinds: Dict[str, str] = {t: _KIND_RE.fullmatch(t).lastgroup for t in set(self.texts)}
        self.i = 0
        # an error needs a bad character, a long text, or a zero denominator (any script's digits)
        suspect = ("bad" in self.kinds.values() or len(text) > MAX_DIGITS or "/0" in text
                   or not text.isascii())
        for k, tok in enumerate(self.texts) if suspect else ():
            kind = self.kinds[tok]
            if kind == "bad":
                raise self.error(f"unexpected character {tok!r}", k)
            if kind == "num":
                if len(tok) > MAX_DIGITS and max(map(len, tok.split("/"))) > MAX_DIGITS:
                    raise self.error(f"numeral of more than {MAX_DIGITS} digits", k)
                if "/" in tok and not int(tok.partition("/")[2]):
                    raise self.error(f"zero denominator in {tok!r}", k)

    def offset(self, k: int) -> int:
        """Token k's offset in the text: the end of the blanks its match starts with."""
        return next(islice(_TOKEN_RE.finditer(self.text), k, None)).start(1)

    def line(self, k: int) -> int:
        return self.text.count("\n", 0, self.offset(k)) + 1

    def error(self, message: str, k: Optional[int] = None) -> ParseError:
        """A ParseError at the line of token k (the cursor's by default)."""
        return ParseError(message, self.source, self.line(self.i if k is None else k))

    def expected(self, what: str, k: int) -> ParseError:
        """The error of finding token k where `what` belongs."""
        return self.error(f"expected {what}, found {self.texts[k] or 'end of input'!r}", k)

    def expect(self, *texts: str):
        """The tokens `texts`, in order."""
        for text in texts:
            if self.texts[self.i] != text:
                raise self.expected(repr(text), self.i)
            self.i += 1

    def _next_of(self, kind: str, what: str) -> str:
        """The next token, which must be of `kind`."""
        tok = self.texts[self.i]
        if self.kinds[tok] != kind:
            raise self.expected(what, self.i)
        self.i += 1
        return tok

    def expect_ident(self) -> str:
        return self._next_of("ident", "identifier")

    def accept(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def at(self, text: str) -> bool:
        return self.texts[self.i] == text

    def expect_rational(self) -> Fraction:
        return Fraction(*self.expect_ratio())

    def expect_ratio(self, what: str = "rational") -> Tuple[int, int]:
        """A rational as the ints (n, d) of its numeral n/d (d is 1 if absent)."""
        n, _, d = self._next_of("num", what).partition("/")
        return int(n), int(d or 1)

    def expect_ext(self) -> ExtValue:
        """A rational or `inf`."""
        if self.accept("inf"):
            return INF
        return ExtValue(*self.expect_ratio("rational or inf"))

    def expect_label(self, what: str) -> str:
        """A point, exception label or carrier element: identifier, numeral or `*`."""
        tok = self.texts[self.i]
        if self.kinds[tok] not in ("ident", "num") and tok != "*":
            raise self.expected(what, self.i)
        self.i += 1
        return tok

    def expect_element(self) -> Union[Fraction, str]:
        """A monoid element: a rational of the rational line, or a table element name."""
        if self.kinds[self.texts[self.i]] == "num":
            return self.expect_rational()
        return self._next_of("ident", "monoid element")

    def expect_eof(self):
        if self.texts[self.i]:
            raise self.error(f"trailing input starting at {self.texts[self.i]!r}")

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
            kw = self.texts[self.i]
            if kw not in keywords:
                raise self.error(f"expected {'/'.join(keywords)}, found {kw!r}")
            k = self.i = self.i + 1
            name = self.expect_ident()
            if name in out:
                raise self.error(f"duplicate {what} {name!r}", k)
            self.expect("{")
            try:
                out[name] = body(kw, name)
            except DomainError as exc:
                raise DomainError(f"{self.source}: {what} {name}: {exc}") from None
            self.expect("}")
        return out
