"""Lexer for the matrix program language (the Section 6 frontend).

The surface syntax is deliberately APL/MATLAB-flavoured, matching the
paper's "APL-style frontend where users can provide their programs and
annotate dynamic matrices"::

    input A(n, n);
    B := A * A;
    C := B * B - 2 * A';
    output C;

Tokens: identifiers, numbers, ``:=``, operators ``+ - * '``, parentheses,
braces and commas, keywords ``input``/``output``/``inv``/``eye``/``zeros``
/``for``/``in``, the range mark ``..``, and ``;`` statement terminators.
``#`` and ``%`` start line comments.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import LexError

KEYWORDS = frozenset({"input", "output", "inv", "eye", "zeros", "for", "in"})

#: Token kinds produced by :func:`tokenize`.
IDENT = "IDENT"
NUMBER = "NUMBER"
KEYWORD = "KEYWORD"
ASSIGN = "ASSIGN"       # :=
PLUS = "PLUS"
MINUS = "MINUS"
STAR = "STAR"
TICK = "TICK"           # ' (transpose)
LPAREN = "LPAREN"
RPAREN = "RPAREN"
COMMA = "COMMA"
SEMI = "SEMI"
LBRACE = "LBRACE"
RBRACE = "RBRACE"
DOTDOT = "DOTDOT"       # .. (iteration ranges)
EOF = "EOF"

_SINGLE = {
    "+": PLUS,
    "-": MINUS,
    "*": STAR,
    "'": TICK,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
    ";": SEMI,
    "{": LBRACE,
    "}": RBRACE,
}


class Token(NamedTuple):
    """One lexical token with its source position."""

    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Lex a program into tokens (always terminated by an EOF token)."""
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch in "#%":  # line comment
            while i < length and source[i] != "\n":
                i += 1
            continue
        if ch == "." and i + 1 < length and source[i + 1] == ".":
            tokens.append(Token(DOTDOT, "..", line, column))
            i += 2
            column += 2
            continue
        if ch == ":" and i + 1 < length and source[i + 1] == "=":
            tokens.append(Token(ASSIGN, ":=", line, column))
            i += 2
            column += 2
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, column))
            i += 1
            column += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and source[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < length and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
                if source[i] == ".":
                    if i + 1 < length and source[i + 1] == ".":
                        break  # the '.' belongs to a '..' range token
                    seen_dot = True
                i += 1
            text = source[start:i]
            tokens.append(Token(NUMBER, text, line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = KEYWORD if text in KEYWORDS else IDENT
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue
        raise LexError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(EOF, "", line, column))
    return tokens
