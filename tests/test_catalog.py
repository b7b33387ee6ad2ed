"""Catalog parsing and the packaged word list."""

import json

import pytest

from g2jones import builtin_catalog, load_catalog, parse_catalog
from g2jones.cli import main
from g2jones.errors import BadGeneratorError, ParseError
from g2jones.rep import rep_to_document


def test_builtin_catalog_size_and_sources(catalog):
    assert len(catalog) == 20
    texts = [text for text, _ in catalog]
    assert "(c1 c2)^6" in texts
    assert "[[(c1 c2)^6, (c2 c3)^6], (c3 c4)^6]" in texts
    for text, word in catalog:
        assert "#" not in text
        assert not word.is_identity()


def test_parse_catalog_strips_comments_and_blanks():
    text = "\n".join([
        "# header comment",
        "",
        "c1 c2  # trailing comment",
        "   (c3 c4)^6   ",
        "#",
    ])
    entries = parse_catalog(text)
    assert [t for t, _ in entries] == ["c1 c2", "(c3 c4)^6"]


def test_parse_catalog_propagates_word_errors():
    with pytest.raises(ParseError) as info:
        parse_catalog("c1\nc9\n")
    # the word's own error class and position, with the 1-based line added
    assert type(info.value) is BadGeneratorError
    assert info.value.position == 1
    assert str(info.value) == "line 2: generator c9 outside c1..c5 (at position 1)"


def test_catalog_line_numbers_count_comments_and_blanks():
    with pytest.raises(ParseError) as info:
        parse_catalog("# header\n\nc1 c2  # ok\n(c1 c2\n")
    assert str(info.value).startswith("line 4: ")


def test_load_catalog_names_the_file_and_line(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("c1 c2\n# note\nc9\n", encoding="utf-8")
    with pytest.raises(BadGeneratorError) as info:
        load_catalog(path)
    assert str(info.value) == (
        f"{path}: line 3: generator c9 outside c1..c5 (at position 1)"
    )


def test_cli_catalog_error_names_the_file_and_line(tmp_path, monkeypatch, rep6, capsys):
    monkeypatch.chdir(tmp_path)
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(rep_to_document(rep6)), encoding="utf-8")
    words = tmp_path / "words.txt"
    words.write_text("(c1 c2)^6\nc9\n", encoding="utf-8")
    assert main(["analyze", "--rep", str(rep), "--catalog", str(words)]) == 2
    assert capsys.readouterr().err == (
        f"BadGeneratorError: {words}: line 2: generator c9 outside c1..c5 (at position 1)\n"
    )


def test_load_catalog(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("c1 c2\n# note\nc3\n", encoding="utf-8")
    entries = load_catalog(path)
    assert len(entries) == 2
    assert str(entries[1][1]) == "c3"
