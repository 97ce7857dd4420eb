"""Command-line surface: subcommands, exit codes, and file outputs."""

import json
import os
import stat
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from ghzcert.certificate import build_ghz_document, load_document
from ghzcert.cli import main
from ghzcert.errors import CertificateError
from ghzcert.exact import parse_rational
from ghzcert.words import PartySpec
from test_document_checks import LEAKED_REASONS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_verify(tmp_path, capsys):
    cert = tmp_path / "m3.json"
    code, out, _ = run(capsys, "build", "3", "3", "3", "--output", str(cert))
    assert code == 0
    assert "UNSAT after 729" in out
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0
    assert out.startswith("accept")


def test_build_structured_output(capsys):
    code, out, _ = run(capsys, "build", "2", "2", "2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ghz-certificate"
    assert doc["lhv"]["assignments_checked"] == 64


def test_build_with_tuple_hint(tmp_path, capsys):
    cert = tmp_path / "hinted.json"
    code, out, _ = run(capsys, "build", "3", "3", "3",
                       "--tuple-hint", "1,1,1,-1", "--output", str(cert))
    assert code == 0
    doc = load_document(str(cert))
    assert doc["state"]["support"] == [[0, 0, 2], [0, 2, 0], [2, 0, 0], [2, 2, 2]]


@pytest.mark.parametrize("command", ("build", "lhv", "spectrum"))
def test_allow_mixed_parity_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "2", "3", "2", "--allow-mixed-parity"])
    assert err.value.code == 2
    assert "unrecognized arguments: --allow-mixed-parity" in capsys.readouterr().err


def test_build_mixed_parity(tmp_path, capsys):
    cert = tmp_path / "mixed.json"
    code, _, _ = run(capsys, "build", "2", "3", "2", "--output", str(cert))
    assert code == 0
    assert load_document(str(cert))["parties"] == {"levels": [2, 3, 2]}
    code, out, _ = run(capsys, "verify", str(cert))
    assert (code, out) == (0, "accept: accept\n")


def test_build_ineligible_hint(capsys):
    code, _, err = run(capsys, "build", "3", "3", "3", "--tuple-hint", "1,1,1,1")
    assert code == 1
    assert "eligible" in err or "eigen-tuple" in err


def test_verify_rejects_tampered_file(tmp_path, capsys):
    cert = tmp_path / "m2.json"
    assert run(capsys, "build", "2", "2", "2", "--output", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    doc["state"]["coefficients"][0] = "-1"
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 1
    assert "reject" in out
    assert "eigenvector equation" in out


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 2


def test_ks_build_and_verify(tmp_path, capsys):
    cert = tmp_path / "ks.json"
    code, out, _ = run(capsys, "ks", "2", "--mode", "sign-only",
                       "--output", str(cert))
    assert code == 0
    assert "UNSAT after 1024" in out
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0


def test_ks_odd_levels(capsys):
    code, _, err = run(capsys, "ks", "5")
    assert code == 2
    assert "even" in err


def test_lhv_unsat(capsys):
    code, out, _ = run(capsys, "lhv", "3", "3", "3")
    assert code == 0
    assert "UNSAT after 729" in out
    assert "parity obstruction: yes" in out


def test_lhv_sat_control(capsys):
    code, out, _ = run(capsys, "lhv", "3", "3", "3", "--rhs", "1,1,1,1")
    assert code == 1
    assert "SAT" in out
    assert "witness:" in out


def test_lhv_zero_on_the_doubled_word(capsys):
    # a zero right-hand side on the twice-planned word: no parity
    # obstruction, yet the brute force finds no assignment
    code, out, _ = run(capsys, "lhv", "3", "3", "3", "3", "--rhs", "1/16,1/16,1/16,-1/16,0")
    assert code == 0
    assert out == (
        "words: ABBB BABB BBAB AAAB BBBA   plan: 0 1 2 3 4 4\n"
        "rhs: 1/16 1/16 1/16 -1/16 0\n"
        "parity obstruction: no\n"
        "brute force: UNSAT after 6561 assignments\n"
    )


def test_lhv_sign_only(capsys):
    code, out, _ = run(capsys, "lhv", "3", "3", "3", "--sign-only")
    assert code == 0
    assert "UNSAT after 64" in out


def test_spectrum_word(capsys):
    code, out, _ = run(capsys, "spectrum", "3", "3", "3", "--word", "ABB")
    assert code == 0
    assert "-1 x4, 0 x19, 1 x4" in out


def test_spectrum_product_structured(capsys):
    code, out, _ = run(capsys, "spectrum", "3", "3", "3", "--product",
                       "--word", "ABB", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["plan_product_spectrum"] == {"-1": 8, "0": 19}
    assert doc["plan_product_classification"] == "negative-semidefinite"


def test_spectrum_structured_matches_certificate(capsys):
    code, out, _ = run(capsys, "spectrum", "3", "3", "3", "--word", "ABB", "--product",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    cert = build_ghz_document(PartySpec((3, 3, 3)))
    assert cert["words"] == ["ABB", "BAB", "BBA", "AAA"]
    # the full multiset against the certificate's sign counts
    for spectrum, classification, signs in (
        (doc["spectrum"], doc["classification"], cert["spectra"]["words"][0]),
        (doc["plan_product_spectrum"], doc["plan_product_classification"],
         cert["spectra"]["plan_product"]),
    ):
        counts = dict.fromkeys(("negative", "positive", "zero"), 0)
        for value, multiplicity in spectrum.items():
            sign = parse_rational(value)
            counts["positive" if sign > 0 else "negative" if sign < 0 else "zero"] += multiplicity
        assert signs == {"classification": classification,
                         **{k: str(c) for k, c in counts.items()}}


def test_criteria_w_state(tmp_path, capsys):
    state = tmp_path / "w.json"
    state.write_text(json.dumps({
        "dims": [2, 2, 2],
        "support": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "coefficients": ["1", "1", "1"],
        "norm_sq": "3",
    }))
    code, out, _ = run(capsys, "criteria", "--state", str(state),
                       "--words", "ABB,BAB,BBA,AAA")
    assert code == 1
    assert "not-ghz" in out
    assert "not an eigenvector of word ABB" in out


def test_criteria_ghz_state(tmp_path, capsys):
    cert = tmp_path / "m2.json"
    assert run(capsys, "build", "2", "2", "2", "--output", str(cert))[0] == 0
    doc = load_document(str(cert))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dims": doc["parties"]["levels"], **doc["state"]}))
    code, out, _ = run(capsys, "criteria", "--state", str(state))
    assert code == 0
    assert "is-ghz" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["build"])
    assert err.value.code == 2


W_STATE = {
    "dims": [2, 2, 2],
    "support": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    "coefficients": ["1", "1", "1"],
    "norm_sq": "3",
}
HALF_PAIR = {"a_weights": ["1/2", "-1/2"], "b_weights": ["1/2", "1/2"]}


def _json(value):
    return json.dumps(value).encode()


# nesting far past the JSON parser's recursion limit
DEEP_NESTING = b"[" * 100_000 + b"]" * 100_000

BAD_INPUTS = [
    pytest.param(["build", "3", "3", "3", "--tuple-hint", "1,x,1,1"], {},
                 id="tuple-hint-junk"),
    pytest.param(["build", "3", "3", "3", "--tuple-hint", "1,1,1"], {},
                 id="tuple-hint-length"),
    pytest.param(["lhv", "3", "3", "3", "--rhs", "1,x,1,1"], {}, id="rhs-junk"),
    pytest.param(["spectrum", "3", "3", "3", "--word", "ABC"], {}, id="word-letter"),
    pytest.param(["spectrum", "3", "3", "3", "--word", ""], {}, id="word-empty"),
    pytest.param(["criteria", "--state", "w.json", "--words", "ABC,BAB,BBA,AAA"],
                 {"w.json": _json(W_STATE)}, id="words-letter"),
    pytest.param(["criteria", "--state", "w.json", "--words", ""],
                 {"w.json": _json(W_STATE)}, id="words-empty"),
    pytest.param(["criteria", "--state", "w.json", "--words", "ABB,,BBA,AAA"],
                 {"w.json": _json(W_STATE)}, id="words-empty-entry"),
    pytest.param(["criteria", "--state", "s.json"],
                 {"s.json": _json({k: v for k, v in W_STATE.items() if k != "dims"})},
                 id="state-without-dims"),
    pytest.param(["criteria", "--state", "s.json"], {"s.json": _json([W_STATE])},
                 id="state-list-root"),
    pytest.param(["criteria", "--state", "s.json"],
                 {"s.json": _json({**W_STATE, "coefficients": ["1", "x", "1"]})},
                 id="state-junk-coefficient"),
    pytest.param(["criteria", "--state", "s.json"],
                 {"s.json": _json({**W_STATE, "dims": [2.7, 2, 2]})},
                 id="state-float-dims"),
    pytest.param(["criteria", "--state", "s.json"], {"s.json": _json({**W_STATE, "dims": 3})},
                 id="state-int-dims"),
    pytest.param(["criteria", "--state", "s.json"],
                 {"s.json": _json({"dims": [2, 2, 2], "support": [[0, 0, 0]],
                                   "coefficients": "1", "norm_sq": "1"})},
                 id="state-string-coefficients"),
    pytest.param(["criteria", "--state", "w.json", "--pairs", "p.json"],
                 {"w.json": _json(W_STATE), "p.json": _json({"pairs": []})},
                 id="pairs-without-site-operators"),
    pytest.param(["criteria", "--state", "w.json", "--pairs", "p.json"],
                 {"w.json": _json(W_STATE),
                  "p.json": _json({"site_operators": [{"b_weights": ["1/2", "1/2"]}] * 3})},
                 id="pairs-without-a-weights"),
    pytest.param(["criteria", "--state", "w.json", "--pairs", "p.json"],
                 {"w.json": _json(W_STATE),
                  "p.json": _json({"site_operators": [{"a_weights": ["1/2", "-1/2"]}] * 3})},
                 id="pairs-without-b-weights"),
    pytest.param(["criteria", "--state", "w.json", "--pairs", "p.json"],
                 {"w.json": _json(W_STATE), "p.json": _json({"site_operators": 5})},
                 id="pairs-int-site-operators"),
    pytest.param(["criteria", "--state", "w.json", "--pairs", "p.json"],
                 {"w.json": _json(W_STATE),
                  "p.json": _json({"site_operators": [
                      {**HALF_PAIR, "a_weights": ["1/2", "y"]}, HALF_PAIR, HALF_PAIR]})},
                 id="pairs-junk-weight"),
    pytest.param(["verify", "."], {}, id="verify-directory"),
    pytest.param(["verify", "bin.json"], {"bin.json": b"\xff\xfe{}"},
                 id="verify-non-utf8"),
    pytest.param(["verify", "deep.json"], {"deep.json": DEEP_NESTING},
                 id="verify-deep-nesting"),
    pytest.param(["criteria", "--state", "deep.json"], {"deep.json": DEEP_NESTING},
                 id="criteria-deep-nesting"),
]


def run_in(tmp_path, monkeypatch, capsys, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    return run(capsys, *argv)


@pytest.mark.parametrize("argv,files", BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line(argv, files, tmp_path, monkeypatch, capsys):
    code, out, err = run_in(tmp_path, monkeypatch, capsys, argv, files)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_integer_literal_past_the_digit_limit_is_an_input_error(
        int_digit_limit, tmp_path, monkeypatch, capsys):
    int_digit_limit(4300)  # the interpreter's default
    doc = build_ghz_document(PartySpec((3, 3, 3)))
    doc["lhv"]["bound"] = 0
    text = json.dumps(doc).replace('"bound": 0', '"bound": ' + "9" * 5000)
    files = {"big.json": text.encode()}
    code, out, err = run_in(tmp_path, monkeypatch, capsys, ["verify", "big.json"], files)
    assert (code, out) == (2, "")
    assert err.startswith("error: parse error: ") and err.count("\n") == 1


def test_lhv_bound_below_a_space_of_thousands_of_digits_is_an_input_error(
        int_digit_limit, capsys):
    int_digit_limit(4300)  # the interpreter's default
    # 3 x4601 has 3**9202 assignments, 4,391 digits
    code, out, err = run(capsys, "lhv", *["3"] * 4601, "--bound", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: assignment space 29497548938957486507")
    assert err.endswith(" exceeds the bound 5\n") and err.count("\n") == 1


# Arbitrary text, and nesting past the parser's recursion limit among it.
NESTED_TEXT = st.builds(
    lambda depth, brackets, inner: brackets[0] * depth + inner + brackets[1] * depth,
    st.integers(0, 3000), st.sampled_from((("[", "]"), ('{"a": ', "}"))), st.text(max_size=8),
)


@settings(deadline=None)
@given(st.text() | NESTED_TEXT)
def test_load_document_returns_an_object_or_raises_certificate_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        try:
            doc = load_document(path)
        except CertificateError:
            return
    assert type(doc) is dict


# The error line of each `criteria` case above: a misshapen input file names
# the field by its dotted path.
CRITERIA_ERRORS = {
    "words-letter": "--words: word 'ABC' has a letter outside 'AB'",
    "words-empty": "--words: '' has an empty word",
    "words-empty-entry": "--words: 'ABB,,BBA,AAA' has an empty word",
    "state-without-dims": "malformed state file: missing key 'dims'",
    "state-list-root": "document root must be an object",
    "state-junk-coefficient": "malformed state file: not a rational literal: 'x'",
    "state-float-dims": "malformed state file: dims[0] must be an integer",
    "state-int-dims": "malformed state file: dims must be a list",
    "state-string-coefficients": "malformed state file: coefficients must be a list",
    "pairs-without-site-operators": "malformed pairs file: missing key 'site_operators'",
    "pairs-without-a-weights":
        "malformed pairs file: missing key 'site_operators[0].a_weights'",
    "pairs-without-b-weights":
        "malformed pairs file: missing key 'site_operators[0].b_weights'",
    "pairs-junk-weight": "malformed pairs file: not a rational literal: 'y'",
    "pairs-int-site-operators": "malformed pairs file: site_operators must be a list",
    "criteria-deep-nesting": "parse error: maximum recursion depth exceeded while "
                             "decoding a JSON array from a unicode string",
}


@pytest.mark.parametrize(
    "argv,files,error",
    [pytest.param(*p.values, CRITERIA_ERRORS[p.id], id=p.id)
     for p in BAD_INPUTS if p.values[0][0] == "criteria"],
)
def test_criteria_input_error_names_the_field(argv, files, error, tmp_path, monkeypatch,
                                              capsys):
    _, _, err = run_in(tmp_path, monkeypatch, capsys, argv, files)
    assert err == f"error: {error}\n"
    assert not LEAKED_REASONS.search(err)


def test_criteria_with_custom_pairs_file(tmp_path, capsys):
    # the well-formed twin of the pairs cases above: canonical m = 2 weights
    state = tmp_path / "w.json"
    state.write_text(json.dumps(W_STATE))
    pairs = tmp_path / "p.json"
    pairs.write_text(json.dumps({"site_operators": [HALF_PAIR] * 3}))
    code, out, _ = run(capsys, "criteria", "--state", str(state), "--pairs", str(pairs),
                       "--words", "ABB,BAB,BBA,AAA")
    assert code == 1
    assert "not an eigenvector of word ABB" in out


@pytest.mark.parametrize(
    "argv", (["ks", "2"], ["spectrum", "3", "3", "3"], ["criteria", "--state", "w.json"])
)
def test_bound_is_only_taken_where_it_is_read(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--bound", "5"])
    assert err.value.code == 2
    assert "unrecognized arguments: --bound 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", (["build", "3", "3", "3"], ["verify", "cert.json"], ["lhv", "3", "3", "3"]),
    ids=("build", "verify", "lhv"),
)
def test_negative_bound_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "3", "3", "3", "--bound", "0", "--output", "cert.json"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main([*argv, "--bound", "-1"])
    assert err.value.code == 2
    assert "argument --bound: must be a non-negative integer, got '-1'" in capsys.readouterr().err


def test_parser_is_built_once():
    from ghzcert.cli import build_parser

    assert build_parser() is build_parser()


def test_output_through_a_symlink_writes_its_target(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real.json").write_text("")
    (tmp_path / "link.json").symlink_to("real.json")
    assert run(capsys, "build", "2", "2", "2", "--output", "plain.json")[0] == 0
    assert run(capsys, "build", "2", "2", "2", "--output", "link.json")[0] == 0
    assert os.readlink(tmp_path / "link.json") == "real.json"
    assert (tmp_path / "real.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert not (tmp_path / "real.json.tmp").exists()


def test_output_to_a_fifo_writes_in_place(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "build", "2", "2", "2", "--output", "plain.json")[0] == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    # a daemon, so a writer that never opens the FIFO fails the test, not the run
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(capsys, "build", "2", "2", "2", "--output", "fifo")[0] == 0
    reader.join(timeout=30)
    assert received == [(tmp_path / "plain.json").read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
