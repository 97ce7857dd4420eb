"""Regenerate the golden corpus, ``corpus.json``, from the oracle searches.

Run by hand from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/golden/make_golden.py

It records, for every party count from 3 to 12, the letter words and product
plan that the exponential word-set search in ``tests/oracles.py`` selects, and
the sha256 of the certificate bytes that ``ghzcert build`` and ``ghzcert ks``
write for a fixed grid, with that same search standing in for
``build_proof_set``. It also records the stdout and exit code of every command
line example in the README, run by the package as it stands inside a scratch
directory that holds the README's W state as ``w.json`` and a ``3 3 3``
certificate as ``cert.json``, so the output paths are the relative names the
README uses. ``tests/test_golden.py`` asserts that the package reproduces
every entry byte for byte. The whole run takes about a minute on a 2-vCPU
machine, nearly all of it in the three 11-party searches.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import chdir, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import oracles  # noqa: E402
from ghzcert import certificate  # noqa: E402
from ghzcert.cli import main  # noqa: E402
from ghzcert.words import PartySpec  # noqa: E402

CORPUS = os.path.join(HERE, "corpus.json")
PARTY_COUNTS = range(3, 13)
COMMANDS = (
    ["build", "3", "3", "3"],
    ["build", "2", "2", "2", "2"],
    ["build", "4", "4", "4"],
    ["build", *["3"] * 5],
    ["build", *["4"] * 4],
    ["build", "6", "6", "6"],
    ["build", *["2"] * 7],
    ["build", *["2"] * 9],
    ["build", *["2"] * 11, "--bound", "5000"],
    ["build", *["3"] * 7, "--bound", "5000"],
    ["build", "10", "10", "10", "--bound", "5000"],
    ["build", "12", "12", "12", "--bound", "5000"],
    ["build", *["2"] * 10, "--bound", "5000"],
    *(["ks", str(m), "--mode", mode]
      for m in (2, 4, 6) for mode in ("sign-only", "full-spectrum")),
    ["build", "3", "3", "3", "--tuple-hint", "1,1,1,-1"],
    # an eligible tuple that no vector of the first orbit carries
    ["build", *["4"] * 4, "--tuple-hint=-1/16,-1/16,-1/16,1/16,-1/16"],
    ["build", "2", "3", "2"],
    ["build", "3", "2", "4"],
)
# the command line examples of the README, in the order it lists them
README_EXAMPLES = (
    ["build", "3", "3", "3", "--output", "cert.json"],
    ["build", "3", "3", "3", "--tuple-hint", "1,1,1,-1"],
    ["verify", "cert.json"],
    ["ks", "4", "--mode", "full-spectrum", "--output", "ks.json"],
    ["lhv", "3", "3", "3"],
    ["lhv", "3", "3", "3", "--rhs", "1,1,1,1"],
    ["spectrum", "3", "3", "3", "--word", "ABB", "--product"],
    ["criteria", "--state", "w.json", "--words", "ABB,BAB,BBA,AAA"],
)
W_STATE = {
    "dims": [2, 2, 2],
    "support": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    "coefficients": ["1", "1", "1"],
    "norm_sq": "3",
}


def run_example(command: list[str]) -> dict:
    """Run one README example in a fresh scratch directory that holds the
    files the examples read."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        with open("w.json", "w", encoding="utf-8") as fh:
            json.dump(W_STATE, fh)
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            main(["build", "3", "3", "3", "--output", "cert.json"])
        with redirect_stdout(out):
            status = main(command)
    return {"command": command, "exit": status, "stdout": out.getvalue()}


def certificate_sha256(command: list[str], directory: str) -> str:
    """Run one CLI command with ``--output`` and hash the file it writes."""
    path = os.path.join(directory, "cert.json")
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        status = main([*command, "--output", path])
    if status != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {status}")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_corpus() -> None:
    proof_sets = {}
    for n in PARTY_COUNTS:
        ps = oracles.build_proof_set(PartySpec((2,) * n))
        proof_sets[str(n)] = {
            "letter_words": list(ps.letter_words),
            "product_plan": list(ps.product_plan),
        }
        print(f"n = {n}: {' '.join(ps.letter_words)}", file=sys.stderr)

    original = certificate.build_proof_set
    certificate.build_proof_set = oracles.build_proof_set
    try:
        with tempfile.TemporaryDirectory() as tmp:
            certificates = [
                {"command": command, "sha256": certificate_sha256(command, tmp)}
                for command in COMMANDS
            ]
    finally:
        certificate.build_proof_set = original

    examples = [run_example(command) for command in README_EXAMPLES]

    corpus = {
        "proof_sets": proof_sets,
        "certificates": certificates,
        "cli_examples": examples,
    }
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    write_corpus()
