"""Shared fixtures for the analysis suite.

The centrepiece is ``corpus_files``: a diverse, deterministic set of
source files — the committed golden tree, synthetic applications in all
four languages, and hand-written lexer edge cases — used by both the
single-parse differential harness and the artifact property suite.
"""

import os

import pytest

from repro.core.features import _PER_FILE_COLLECTORS
from repro.lang.sourcefile import Codebase, SourceFile
from repro.synth.appgen import GeneratorConfig, generate_app
from repro.synth.profiles import AppProfile

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data", "golden",
)
GOLDEN_TREE = os.path.join(GOLDEN_DIR, "tree")


def _profile(name: str, language: str, **overrides) -> AppProfile:
    defaults = dict(
        name=name,
        language=language,
        kloc=30.0,
        z_complexity=0.8,
        z_danger=0.9,
        z_surface=0.7,
        z_churn=0.0,
        n_vulns=3,
        history_years=4.0,
        network_facing=True,
        n_developers=4,
    )
    defaults.update(overrides)
    return AppProfile(**defaults)


#: Hand-written edge cases: lexer corner constructs that historically
#: diverged between analyzers (unterminated comments, CR/CRLF newlines,
#: digit separators, empty files).
EDGE_CASE_SOURCES = {
    "edge_empty.c": "",
    "edge_unterminated.c": "int x = 1; /* comment never closes\nint y = 2;",
    "edge_crlf.c": "int a;\r\nif (a) {\r\n  a = 2;\r\n}\r\n",
    "edge_lone_cr.c": "int a;\rint b;\rint c;\n",
    "edge_separators.cpp":
        "long big = 1'000'000;\nunsigned mask = 0xFF'FFul;\n"
        "int py_like = 1_000;\n",
    "edge_blockcomment.c":
        "/* a\n * multi-line\n * comment */ int after; /* inline */ int z;\n",
    "edge_strings.py":
        'TEXT = """triple\nquoted\nstring"""\nq = \'unterminated\n',
}


def _synthetic_files():
    files = []
    for lang in ("c", "cpp", "java", "python"):
        app = generate_app(
            _profile(f"corpus-{lang}", lang),
            seed=7,
            config=GeneratorConfig(min_lines=200, max_lines=500),
        )
        # A couple of files per language keeps the suite fast while still
        # exercising every generator construct.
        files.extend(app.codebase.files[:3])
    return files


def _build_corpus():
    files = list(Codebase.from_directory(GOLDEN_TREE, name="golden").files)
    files.extend(_synthetic_files())
    for path, text in sorted(EDGE_CASE_SOURCES.items()):
        files.append(SourceFile(path, text))
    return files


@pytest.fixture(scope="session")
def corpus_files():
    """Deterministic corpus of (path-unique) SourceFiles for equivalence tests."""
    return _build_corpus()


def fresh_copy(source: SourceFile) -> SourceFile:
    """An independent SourceFile with no caches shared with ``source``."""
    return SourceFile(source.path, source.text, source.spec)


def reference_record(source: SourceFile) -> dict:
    """``file_record(source)`` with every collector on its own fresh copy.

    No view is shared between analyzers: each one lexes, parses and
    builds CFGs from the text itself. This is the independent reference
    the single-parse path is held to.
    """
    return {key: collect(fresh_copy(source))
            for _, key, collect in _PER_FILE_COLLECTORS}


@pytest.fixture(scope="session")
def corpus_codebase(corpus_files):
    """The corpus as one Codebase (paths are unique across the corpus)."""
    return Codebase("corpus", [fresh_copy(f) for f in corpus_files])
