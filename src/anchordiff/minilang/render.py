"""Rendering token surface strings back into program text.

Generated sequences have no source to slice from, so rendering rebuilds
line structure from the structural surfaces (newline, indentation, dedent)
and joins content tokens with canonical spacing. The result is whitespace-
normalized but parses to a tree isomorphic to the one the tokens came from.
"""

from __future__ import annotations

from .lexer import KEYWORDS, Token, TokenKind

# Reserved surfaces. The mask sentinel "?" is a byte the grammar can never
# accept, so corrupted dumps are guaranteed to fail the parse check. The pad
# and dedent surfaces never reach rendered text (pads render as nothing,
# dedents only adjust the indent level). A split identifier's continuation
# chunks carry the "##" prefix (WordPiece's mark), which no lexed token can
# start with, and render joined to the chunk before them.
MASK_SURFACE = "?"
PAD_SURFACE = "<pad>"
DEDENT_SURFACE = "<dedent>"
CONTINUATION_PREFIX = "##"

_NO_SPACE_BEFORE = {")", "]", ",", ":"}
_NO_SPACE_AFTER = {"(", "["}
_CALLABLE_TAIL = {")", "]"}


def token_surfaces(tokens: list[Token]) -> list[str]:
    """Surface strings identifying ``tokens`` in a vocabulary.

    An Identifier that starts where the Identifier before it ends is a
    continuation chunk of a split identifier: the lexer's maximal munch
    never yields two adjacent Identifier tokens.
    """
    surfaces = []
    identifier_end = None  # end of the previous token if it is an Identifier
    for tok in tokens:
        if tok.kind is TokenKind.IDENTIFIER:
            prefix = CONTINUATION_PREFIX if tok.start == identifier_end else ""
            surfaces.append(prefix + tok.text)
            identifier_end = tok.end
        else:
            surfaces.append(DEDENT_SURFACE if tok.kind is TokenKind.DEDENT else tok.text)
            identifier_end = None
    return surfaces


def _is_wordish(text: str) -> bool:
    return bool(text) and (text[0].isalnum() or text[0] in "_'\"")


def render_surfaces(surfaces: list[str]) -> str:
    """Deterministically render surface strings to source text.

    Indentation surfaces set the current indent level (their length / 4),
    the dedent surface pops one level, pads vanish, a continuation chunk
    joins the text before it on its line, and everything else is emitted
    with canonical spacing. Total over arbitrary sequences.
    """
    out: list[str] = []
    level = 0
    at_line_start = True
    prev = ""
    for surface in surfaces:
        if surface == PAD_SURFACE:
            continue
        if surface == "\n":
            out.append("\n")
            at_line_start = True
            prev = ""
            continue
        if surface == DEDENT_SURFACE:
            level = max(level - 1, 0)
            continue
        if surface and not surface.strip(" \t"):
            # Indentation run: adopt its absolute level.
            level = max(len(surface.replace("\t", " " * 4)) // 4, 0)
            continue
        if surface.startswith(CONTINUATION_PREFIX):
            surface = surface[len(CONTINUATION_PREFIX) :]
            if not at_line_start:
                out.append(surface)
                prev += surface
                continue
        if at_line_start:
            out.append("    " * level)
            at_line_start = False
        elif not _needs_no_space(prev, surface):
            out.append(" ")
        out.append(surface)
        prev = surface
    return "".join(out)


def _needs_no_space(prev: str, cur: str) -> bool:
    if cur in _NO_SPACE_BEFORE:
        return True
    if prev in _NO_SPACE_AFTER:
        return True
    if (
        cur in ("(", "[")
        and prev not in KEYWORDS
        and (_is_wordish(prev) or prev in _CALLABLE_TAIL)
    ):
        # Call/subscript postfix hugs its target: f(x), arr[i].
        return True
    return False
