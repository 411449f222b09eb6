"""Property tests (need hypothesis): the CLI dispatch parses as the top-level parser."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from test_cli import _CORPUS, assert_parses_as_the_top_level_parser

_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)

COMMANDS = ("binding", "toughness", "spectral", "construct", "regime", "scan", "verify",
            "encode", "decode", "nonsense")
NESTED = ("general", "bipK", "bipD", "dnest", "thm6", "thm7", "family", "bipfamily",
          "lemma12", "lemma6", "properties", "identities")
OPTIONS = ("-h", "--help", "--h", "--g6", "--in", "--method", "--meth", "--out", "--threads",
           "--format", "--n", "--r", "--p", "--q", "--t1", "--variant", "--samples", "--seed",
           "--bogus", "--", "-", "--g6=Bw", "--n=5", "--threads=0", "-x")
VALUES = ("Bw", "Cr", "auto", "brute", "flow", "json", "csv", "text", "ceil", "floor",
          "1", "3", "10", "-1", "0", "x", "2,3", "1,2", "a b")
TOKENS = st.sampled_from(COMMANDS + NESTED + OPTIONS + VALUES)
# an option with a value, or any one token
PIECES = st.one_of(st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
                   TOKENS.map(lambda t: (t,)))


@_SETTINGS
@given(st.one_of(st.sampled_from(COMMANDS), TOKENS), st.lists(st.sampled_from(NESTED), max_size=1),
       st.lists(PIECES, max_size=5))
def test_token_sequences_parse_as_the_top_level_parser(first, nested, pieces):
    assert_parses_as_the_top_level_parser([first, *nested, *(t for p in pieces for t in p)])


@st.composite
def edited_corpus_argvs(draw):
    """An argv of the corpus, most of them well formed, with up to two edits."""
    argv = list(draw(st.sampled_from(_CORPUS)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete", "swap")))
        if edit == "insert" or not argv:
            argv[i:i] = draw(PIECES)
        elif edit == "replace":
            argv[min(i, len(argv) - 1)] = draw(TOKENS)
        elif edit == "delete":
            del argv[min(i, len(argv) - 1)]
        elif i + 2 < len(argv):
            argv[i], argv[i + 2] = argv[i + 2], argv[i]
    return argv


@_SETTINGS
@given(edited_corpus_argvs())
def test_edited_corpus_argvs_parse_as_the_top_level_parser(argv):
    assert_parses_as_the_top_level_parser(argv)
