"""Loading word catalogs: one expression per line, '#' starts a comment."""

from __future__ import annotations

from importlib import resources

from .errors import ParseError
from .words import MCGWord, parse_word


def parse_catalog(text: str) -> list[tuple[str, MCGWord]]:
    """Parse catalog text into (source line, word) pairs, skipping comments.

    A :class:`ParseError` is raised again naming its 1-based line.
    """
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            try:
                out.append((stripped, parse_word(stripped)))
            except ParseError as exc:
                raise exc.located(f"line {number}") from exc
    return out


def load_catalog(path) -> list[tuple[str, MCGWord]]:
    """Parse a catalog file; a :class:`ParseError` names the file and line."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_catalog(text)
    except ParseError as exc:
        raise exc.located(str(path)) from exc


def builtin_catalog() -> list[tuple[str, MCGWord]]:
    """The packaged catalog of Torelli words."""
    text = (
        resources.files("g2jones")
        .joinpath("data/torelli_catalog.txt")
        .read_text(encoding="utf-8")
    )
    return parse_catalog(text)
