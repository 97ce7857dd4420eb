"""The package reproduces the golden corpus byte for byte.

``tests/golden/corpus.json`` was written by ``tests/golden/make_golden.py``
with the exponential word-set searches of ``tests/oracles.py``: the proof
set for every party count from 3 to 12, the sha256 of the certificate
bytes for a fixed grid of ``ghzcert build`` and ``ghzcert ks`` commands, and
the stdout and exit code of the README's command line examples.

The sign counts that certificates store are compared with the full
eigenvalue multisets of ``tests/oracles.py`` on the same grid.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

import oracles
from ghzcert.certificate import build_ghz_document
from ghzcert.cli import main
from ghzcert.words import PartySpec, build_proof_set

sys.path.insert(0, str(Path(__file__).parent / "golden"))
import make_golden  # noqa: E402

CORPUS = json.loads(
    (Path(__file__).parent / "golden" / "corpus.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("n", sorted(CORPUS["proof_sets"], key=int))
def test_proof_set_matches_corpus(n):
    expected = CORPUS["proof_sets"][n]
    ps = build_proof_set(PartySpec((2,) * int(n)))
    assert list(ps.letter_words) == expected["letter_words"]
    assert list(ps.product_plan) == expected["product_plan"]


@pytest.mark.parametrize(
    "entry", CORPUS["certificates"], ids=lambda e: " ".join(e["command"])
)
def test_certificate_bytes_match_corpus(entry, tmp_path):
    path = tmp_path / "cert.json"
    assert main([*entry["command"], "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]


@pytest.mark.parametrize(
    "entry", CORPUS["cli_examples"], ids=lambda e: " ".join(e["command"])
)
def test_readme_example_matches_corpus(entry):
    assert make_golden.run_example(entry["command"]) == entry


# every level list the corpus builds, and 61 three-level parties, whose zero
# counts pass 2**53
GRID_LEVELS = [*dict.fromkeys(
    tuple([int(a) for a in itertools.takewhile(str.isdigit, command[1:])])
    for command in make_golden.COMMANDS if command[0] == "build"
), (3,) * 61]


@pytest.mark.parametrize("levels", GRID_LEVELS, ids=lambda levels: " ".join(map(str, levels)))
def test_sign_counts_match_full_multiset_oracle(levels):
    # bound 0: the spectra do not depend on how the LHV claim is derived
    doc = build_ghz_document(PartySpec(levels), bound=0)
    assert doc["spectra"] == oracles.certificate_spectra(doc)
    if len(levels) == 61:
        assert int(doc["spectra"]["plan_product"]["zero"]) > 2**53
