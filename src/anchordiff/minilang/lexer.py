"""Tokenizer for the mini-language.

Total over arbitrary text: anything the lexer does not recognise becomes a
single-character Operator token, so tokenize() never raises. Indentation is
significant and surfaces as Indent/Dedent tokens; a tab counts as 4 spaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

KEYWORDS = frozenset(
    {
        "def", "return", "if", "elif", "else", "while", "for", "in",
        "and", "or", "not", "True", "False", "None",
        "import", "pass", "break", "continue",
    }
)

TWO_CHAR_OPERATORS = ("**", "//", "<=", ">=", "==", "!=")
ONE_CHAR_OPERATORS = frozenset("+-*/%<>=")
DELIMITERS = frozenset("()[]:,")

TAB_WIDTH = 4


class TokenKind(enum.Enum):
    KEYWORD = "Keyword"
    IDENTIFIER = "Identifier"
    NUMBER = "Number"
    STRING = "String"
    OPERATOR = "Operator"
    DELIMITER = "Delimiter"
    NEWLINE = "Newline"
    INDENT = "Indent"
    DEDENT = "Dedent"


@dataclass(slots=True)
class Token:
    """One lexeme: its kind, its text and its ``[start, end)`` byte span.

    A token's position is its index in the list; nothing mutates a token.
    """

    kind: TokenKind
    text: str
    span: tuple[int, int]

    @property
    def start(self) -> int:
        return self.span[0]

    @property
    def end(self) -> int:
        return self.span[1]


def _indent_width(ws: str) -> int:
    width = 0
    for ch in ws:
        width += TAB_WIDTH if ch == "\t" else 1
    return width


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens with exact byte spans.

    Indent tokens carry the line's full leading whitespace; Dedent tokens
    are zero-width markers at the first non-whitespace column. Blank lines
    produce no tokens. No synthetic trailing Newline/Dedent tokens are
    appended; the parser treats end-of-input as an implicit terminator.
    """
    tokens: list[Token] = []
    indent_stack = [0]
    pos = 0
    n = len(source)

    def emit(kind: TokenKind, text: str, start: int, end: int) -> None:
        tokens.append(Token(kind, text, (start, end)))

    while pos < n:
        # Start of a line: measure indentation.
        line_start = pos
        while pos < n and source[pos] in " \t":
            pos += 1
        ws_end = pos
        if pos >= n or source[pos] == "\n":
            # Blank line: the break is inter-token whitespace, not a token.
            if pos < n:
                pos += 1
            continue
        width = _indent_width(source[line_start:ws_end])
        if width > indent_stack[-1]:
            indent_stack.append(width)
            emit(TokenKind.INDENT, source[line_start:ws_end], line_start, ws_end)
        else:
            while width < indent_stack[-1]:
                indent_stack.pop()
                emit(TokenKind.DEDENT, "", ws_end, ws_end)
            if width > indent_stack[-1]:
                # Inconsistent dedent; recover by adopting the new level.
                indent_stack.append(width)
                emit(TokenKind.INDENT, source[line_start:ws_end], line_start, ws_end)

        # Lex the line's content.
        while pos < n and source[pos] != "\n":
            ch = source[pos]
            if ch in " \t":
                pos += 1
                continue
            start = pos
            if _is_ident_start(ch):
                while pos < n and _is_ident_char(source[pos]):
                    pos += 1
                text = source[start:pos]
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
                emit(kind, text, start, pos)
            elif ch.isdigit():
                while pos < n and source[pos].isdigit():
                    pos += 1
                if pos + 1 < n and source[pos] == "." and source[pos + 1].isdigit():
                    pos += 1
                    while pos < n and source[pos].isdigit():
                        pos += 1
                emit(TokenKind.NUMBER, source[start:pos], start, pos)
            elif ch in "'\"":
                end = _scan_string(source, pos)
                if end is None:
                    # Unterminated: the quote alone degrades to an Operator.
                    pos += 1
                    emit(TokenKind.OPERATOR, ch, start, pos)
                else:
                    pos = end
                    emit(TokenKind.STRING, source[start:pos], start, pos)
            elif source.startswith(TWO_CHAR_OPERATORS, pos):
                pos += 2
                emit(TokenKind.OPERATOR, source[start:pos], start, pos)
            elif ch in ONE_CHAR_OPERATORS:
                pos += 1
                emit(TokenKind.OPERATOR, ch, start, pos)
            elif ch in DELIMITERS:
                pos += 1
                emit(TokenKind.DELIMITER, ch, start, pos)
            else:
                # Unknown byte: keep totality, surface it as an Operator.
                pos += 1
                emit(TokenKind.OPERATOR, ch, start, pos)

        if pos < n:  # the "\n" ending a content line
            emit(TokenKind.NEWLINE, "\n", pos, pos + 1)
            pos += 1

    return tokens


def _scan_string(source: str, pos: int) -> int | None:
    """Return the end offset of a quoted string starting at ``pos``.

    Strings do not span lines. Returns None when unterminated.
    """
    quote = source[pos]
    i = pos + 1
    while i < len(source) and source[i] != "\n":
        if source[i] == "\\" and i + 1 < len(source):
            i += 2
            continue
        if source[i] == quote:
            return i + 1
        i += 1
    return None


def split_identifiers(tokens: list[Token], max_len: int) -> list[Token]:
    """Split Identifier tokens longer than ``max_len`` into greedy chunks.

    Chunk spans partition the original identifier span, so downstream node
    assignment lands every chunk on the original Name node. Other tokens
    are passed through as they are.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out: list[Token] = []
    for tok in tokens:
        if tok.kind is TokenKind.IDENTIFIER and len(tok.text) > max_len:
            for off in range(0, len(tok.text), max_len):
                chunk = tok.text[off : off + max_len]
                start = tok.start + off
                out.append(Token(tok.kind, chunk, (start, start + len(chunk))))
        else:
            out.append(tok)
    return out
