"""Mini-language front end: lexer, parser, and token/tree types."""

from .lexer import (
    KEYWORDS,
    Token,
    TokenKind,
    split_identifiers,
    tokenize,
)
from .nodes import AstNode, NodeKind, SyntaxTree
from .parser import ParseError, is_syntactically_valid, parse
from .render import (
    DEDENT_SURFACE,
    MASK_SURFACE,
    PAD_SURFACE,
    render_surfaces,
    token_surfaces,
)

__all__ = [
    "KEYWORDS",
    "Token",
    "TokenKind",
    "tokenize",
    "split_identifiers",
    "AstNode",
    "NodeKind",
    "SyntaxTree",
    "ParseError",
    "parse",
    "is_syntactically_valid",
    "MASK_SURFACE",
    "PAD_SURFACE",
    "DEDENT_SURFACE",
    "token_surfaces",
    "render_surfaces",
]
