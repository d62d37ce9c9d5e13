"""Tiny shared tokenizer for the engine's text formats."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from .errors import ParseError
from .extvalue import INF, ExtValue

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.']*)
  | (?P<punct>[(){},;:=@*\[\]<>|+-])
    """,
    re.VERBOSE,
)
_ZERO_DENOMINATOR = re.compile(r"\d+/0+")


@dataclass
class Token:
    kind: str  # 'num' | 'ident' | 'punct' | 'arrow' | 'eof'
    text: str
    line: int


class TokenStream:
    def __init__(self, text: str, source: str = "<input>"):
        self.source = source
        self.tokens: List[Token] = []
        line = 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", source, line)
            line += text.count("\n", pos, m.end())
            if m.lastgroup == "num" and _ZERO_DENOMINATOR.fullmatch(m.group()):
                raise ParseError(f"zero denominator in {m.group()!r}", source, line)
            if m.lastgroup != "ws":
                self.tokens.append(Token(m.lastgroup, m.group(), line))
            pos = m.end()
        self.tokens.append(Token("eof", "", line))
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.source, tok.line)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

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
        tok = self.next()
        if tok.kind != "num":
            raise self.error(f"expected rational, found {tok.text or 'end of input'!r}", tok)
        return Fraction(tok.text)

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
