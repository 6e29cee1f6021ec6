"""APL-style frontend (Section 6): matrix-language text -> Program."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "LexError": "errors",
    "ParseError": "errors",
    "Parser": "parser",
    "SyntaxErrorWithPosition": "errors",
    "Token": "lexer",
    "parse_program": "parser",
    "tokenize": "lexer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
