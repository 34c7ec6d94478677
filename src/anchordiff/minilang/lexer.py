"""Tokenizer for the mini-language.

Total over arbitrary text: anything the lexer does not recognise becomes a
single-character Operator token, so tokenize() never raises. Indentation is
significant and surfaces as Indent/Dedent tokens; a tab counts as 4 spaces.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

KEYWORDS = frozenset(
    {
        "def", "return", "if", "elif", "else", "while", "for", "in",
        "and", "or", "not", "True", "False", "None",
        "import", "pass", "break", "continue",
    }
)

TWO_CHAR_OPERATORS = ("**", "//", "<=", ">=", "==", "!=")
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


# What the lexer matches with one call each: the blanks that indent a
# line, an identifier's characters after its first (``\w`` is
# ``str.isalnum`` or ``_``), and a quoted string, in which a backslash
# escapes the next character, a line break included.
_BLANKS = re.compile(r"[ \t]*")
_WORD_REST = re.compile(r"\w*")
_STRINGS = {
    quote: re.compile(rf"{quote}(?:[^{quote}\\\n]|\\.)*{quote}", re.DOTALL)
    for quote in "'\""
}


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens with exact byte spans.

    Indent tokens carry the line's full leading whitespace; Dedent tokens
    are zero-width markers at the first non-whitespace column. Blank lines
    produce no tokens. No synthetic trailing Newline/Dedent tokens are
    appended; the parser treats end-of-input as an implicit terminator.
    """
    tokens: list[Token] = []
    append = tokens.append
    indent_stack = [0]
    pos = 0
    n = len(source)
    while pos < n:
        # Start of a line: measure indentation.
        line_start = pos
        end = source.find("\n", pos)
        if end < 0:
            end = n
        pos = _BLANKS.match(source, pos, end).end()
        if pos == end:
            # Blank line: the break is inter-token whitespace, not a token.
            pos = end + 1
            continue
        ws = source[line_start:pos]
        width = len(ws) + (TAB_WIDTH - 1) * ws.count("\t")
        if width > indent_stack[-1]:
            indent_stack.append(width)
            append(Token(TokenKind.INDENT, ws, (line_start, pos)))
        else:
            while width < indent_stack[-1]:
                indent_stack.pop()
                append(Token(TokenKind.DEDENT, "", (pos, pos)))
            if width > indent_stack[-1]:
                # Inconsistent dedent; recover by adopting the new level.
                indent_stack.append(width)
                append(Token(TokenKind.INDENT, ws, (line_start, pos)))

        # Lex the line's content.
        while pos < end:
            ch = source[pos]
            if ch == " " or ch == "\t":
                pos += 1
                continue
            start = pos
            if ch.isalpha() or ch == "_":
                pos = _WORD_REST.match(source, pos + 1).end()
                text = source[start:pos]
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
                append(Token(kind, text, (start, pos)))
            elif ch.isdigit():
                pos += 1
                while pos < end and source[pos].isdigit():
                    pos += 1
                if pos + 1 < n and source[pos] == "." and source[pos + 1].isdigit():
                    pos += 2
                    while pos < end and source[pos].isdigit():
                        pos += 1
                append(Token(TokenKind.NUMBER, source[start:pos], (start, pos)))
            elif ch == "'" or ch == '"':
                match = _STRINGS[ch].match(source, pos)
                if match is None:
                    # Unterminated: the quote alone degrades to an Operator.
                    pos += 1
                    append(Token(TokenKind.OPERATOR, ch, (start, pos)))
                else:
                    pos = match.end()
                    append(Token(TokenKind.STRING, match.group(), (start, pos)))
                    if pos > end:  # an escaped line break: the line goes on
                        end = source.find("\n", pos)
                        if end < 0:
                            end = n
            elif source.startswith(TWO_CHAR_OPERATORS, pos):
                pos += 2
                append(Token(TokenKind.OPERATOR, source[start:pos], (start, pos)))
            else:
                # One of "+-*/%<>=" or a delimiter; an unknown byte is an
                # Operator too, which keeps the lexer total.
                pos += 1
                kind = TokenKind.DELIMITER if ch in DELIMITERS else TokenKind.OPERATOR
                append(Token(kind, ch, (start, pos)))

        if pos < n:  # the "\n" ending a content line
            append(Token(TokenKind.NEWLINE, "\n", (pos, pos + 1)))
            pos += 1

    return tokens


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
