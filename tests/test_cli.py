import cmath
import json
import math
import warnings

import pytest

from augrank.cli import build_parser, main
from augrank import action, augment, checks, jsonio
from augrank.action import phi_left
from augrank.braids import BraidWord
from augrank.freealg import NCPoly


def _complex(obj):
    return complex(obj["re"], obj["im"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhiCommand:
    def test_single_letter_text(self, capsys):
        code, out, _ = run(capsys, "phi", "--n", "2", "--word", "1", "--side", "L")
        assert code == 0
        assert "[[-a21, 1], [1, 0]]" in out
        assert "config:" in out

    def test_identity_word(self, capsys):
        code, out, _ = run(capsys, "phi", "--n", "2", "--word", "", "--side", "L")
        assert code == 0
        assert "[[1, 0], [0, 1]]" in out

    def test_right_side_json_matches_transpose_conjugate(self, capsys):
        code, out, _ = run(
            capsys, "phi", "--n", "2", "--word", "1 1 1", "--side", "R", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        expected = phi_left(BraidWord(2, (1, 1, 1))).conj_transpose()
        assert obj["matrix"]["entries"] == expected.render_entries()
        assert obj["config"]["command"] == "phi"

    def test_bad_word_is_error(self, capsys):
        code, _, err = run(capsys, "phi", "--n", "2", "--word", "5")
        assert code == 1
        assert "error" in err

    def test_high_strand_indices_print(self, capsys):
        code, out, _ = run(capsys, "phi", "--n", "56", "--word", "55 -54")
        assert code == 0
        assert "-a54,56 + a54,55*a55,56" in out
        code, out, _ = run(capsys, "phi", "--n", "56", "--word", "55 -54", "--format", "json")
        assert code == 0
        assert json.loads(out)["matrix"]["entries"][54][54] == "a54,56*a56,55 - a54,55*a55,56*a56,55"

    def test_strand_limit_is_checked_before_any_generator(self, capsys, monkeypatch):
        def no_generators(n):
            raise AssertionError(f"generators of {n} strands built")

        monkeypatch.setattr(action, "gen_order", no_generators)
        code, out, err = run(capsys, "phi", "--n", "1024", "--word", "")
        assert (code, out) == (1, "")
        assert err == "error: ambient size 1024 is over the free algebra's limit of 1023 strands\n"


class TestSatelliteCommand:
    def test_satellite_word(self, capsys):
        code, out, _ = run(
            capsys,
            "satellite", "--alpha", "1 1 1", "--k", "2", "--gamma", "1", "--p", "2",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["braid"]["n"] == 4
        assert len(obj["braid"]["word"]) == 13
        assert obj["components"] == 1
        assert "minimal" in obj["note"]

    def test_empty_pattern_is_cable(self, capsys):
        code, out, _ = run(
            capsys,
            "satellite", "--alpha", "1", "--k", "2", "--p", "2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["braid"]["word"] == [2, 1, 3, 2]

    def test_iterated_torus_matches_satellite_form(self, capsys):
        code1, out1, _ = run(
            capsys,
            "satellite", "--alpha", "1 1 1", "--k", "2", "--gamma", "1", "--p", "2",
            "--format", "json",
        )
        code2, out2, _ = run(
            capsys,
            "satellite", "--iterated-torus", "--p", "2,2", "--q", "3,1", "--format", "json",
        )
        assert code1 == code2 == 0
        assert json.loads(out1)["braid"] == json.loads(out2)["braid"]

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "satellite", "--alpha", "1")
        assert code == 1
        assert "error" in err


class TestTorusCommand:
    def test_trefoil_word(self, capsys):
        code, out, _ = run(capsys, "torus", "--p", "2", "--q", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["braid"]["word"] == [1, 1, 1]


class TestSearchVerifyConstruct:
    def test_search_writes_certificate(self, capsys, tmp_path):
        path = tmp_path / "trefoil.json"
        code, out, _ = run(
            capsys,
            "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(path),
        )
        assert code == 0
        assert "accepted certificate" in out
        obj = jsonio.load_file(str(path))
        assert obj["rank"] == 2
        assert obj["braid"] == {"n": 2, "word": [1, 1, 1]}
        # mu is drawn on the unit circle, so lambda = (-1)^w mu^-w is on it too
        assert abs(abs(_complex(obj["mu"])) - 1) < 1e-15
        assert abs(abs(_complex(obj["lambda"])) - 1) < 1e-15

    def test_search_is_byte_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = run(
                capsys,
                "ar-search", "--n", "2", "--word", "1 1 1 1 1", "--output", str(p),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_search_not_found_exit_code(self, capsys, tmp_path):
        path = tmp_path / "evidence.json"
        code, out, _ = run(
            capsys,
            "ar-search", "--n", "4", "--word", "2 1 3 2 2 1 3 2 2 1 3 2 1",
            "--restarts", "6", "--output", str(path), "--format", "json",
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["found"] is False
        assert obj["best_residual"] > 1e-3
        assert jsonio.load_file(str(path))["found"] is False

    def test_zero_restarts_exit_inconclusive(self, capsys):
        code, out, _ = run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--restarts", "0", "--format", "json")
        assert code == 2
        assert json.loads(out)["label"] == "inconclusive"

    def test_readme_evidence_pipeline(self, capsys):
        code, out, _ = run(
            capsys, "satellite", "--iterated-torus", "--p", "2,2", "--q", "3,1", "--format", "json"
        )
        assert code == 0
        braid = json.loads(out)["braid"]
        word = " ".join(str(e) for e in braid["word"])
        assert word == "2 1 3 2 2 1 3 2 2 1 3 2 1"
        code, out, _ = run(
            capsys,
            "ar-search", "--n", str(braid["n"]), "--word", word,
            "--restarts", "8", "--format", "json",
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["found"] is False
        assert obj["label"] == "evidence-only"
        assert obj["residual_summary"]["count"] == 8

    def test_not_found_text_names_stop_reasons(self, capsys):
        # T(2,601) has a maximal-rank augmentation; the plain residual overflows
        # from some starts, and the text must not read as a bare residual floor
        code, out, _ = run(
            capsys, "ar-search", "--n", "2", "--word", " ".join(["1"] * 601), "--restarts", "4"
        )
        assert code == 2
        assert "no certificate found after 4 restarts (inconclusive)" in out
        line = next(line for line in out.splitlines() if line.startswith("stops: "))
        stops = dict(item.split("=") for item in line.split()[1:])
        assert list(stops) == list(augment.STOP_REASONS)
        assert sum(int(v) for v in stops.values()) == 4
        assert int(stops["non_finite"]) >= 1

    def test_verify_accepts_good_certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(path))
        code, out, _ = run(capsys, "verify", "--cert", str(path), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["accepted"] is True
        assert obj["recomputed"]["rank"] == 2

    def test_verify_rejects_corrupted_certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(path))
        obj = jsonio.load_file(str(path))
        obj["generators"][0]["re"] = 3.25
        jsonio.dump_file(str(path), obj)
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 2
        assert "NOT accepted" in out

    def test_verify_rejects_non_finite_fields(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(path))
        good = jsonio.load_file(str(path))
        loose = json.loads(json.dumps(good))
        loose["generators"][0]["re"] += 1e-3
        loose["tol"] = float("inf")
        nan_gen = json.loads(json.dumps(good))
        nan_gen["generators"][0]["re"] = float("nan")
        for obj, field in ((loose, "tol"), (nan_gen, "generator")):
            path.write_text(json.dumps(obj))  # the stdlib writes Infinity / NaN
            code, out, err = run(capsys, "verify", "--cert", str(path))
            assert code == 1
            assert "accepted" not in out
            assert "not finite" in err and field in err

    def test_verify_folds_the_word_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cert.json"
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(path))
        calls = []
        fold = augment.eval_phi_matrices

        def counted(beta, values):
            calls.append(beta)
            return fold(beta, values)

        monkeypatch.setattr(augment, "eval_phi_matrices", counted)
        code, _, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("role", ["alpha", "gamma"])
    @pytest.mark.parametrize("tol", [None, 10.0])
    def test_construct_reports_tampered_factor_as_bad_input(self, capsys, tmp_path, role, tol):
        # a factor is measured afresh against construct-aug's own bound,
        # whatever residuals and tol the file stores
        paths = {"alpha": tmp_path / "a.json", "gamma": tmp_path / "g.json"}
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(paths["alpha"]))
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1 1 1", "--output", str(paths["gamma"]))
        obj = jsonio.load_file(str(paths[role]))
        obj["generators"][0]["re"] += 1e-3
        if tol is not None:
            obj["tol"] = tol
        jsonio.dump_file(str(paths[role]), obj)
        code, out, err = run(
            capsys,
            "construct-aug",
            "--alpha-cert", str(paths["alpha"]), "--gamma-cert", str(paths["gamma"]),
        )
        assert code == 1
        assert out == ""
        name = {"alpha": "companion", "gamma": "pattern"}[role]
        assert f"{name} certificate is not accepted: recomputed residuals" in err
        assert "over 1e-09" in err
        assert "failed verification" not in err

    def test_deep_satellite_chain_stays_on_unit_circle(self, capsys, tmp_path):
        # the trefoil, then its satellite with T(2,5) as pattern, again and
        # again up to B64 (4777 letters): a mu off the unit circle made
        # lambda = (-1)^w mu^-w overflow there
        t25, companion = tmp_path / "t25.json", tmp_path / "b2.json"
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1 1 1", "--output", str(t25))
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(companion))
        for n in (4, 8, 16, 32, 64):
            sat = tmp_path / f"b{n}.json"
            code, _, err = run(
                capsys,
                "construct-aug", "--alpha-cert", str(companion), "--gamma-cert", str(t25),
                "--output", str(sat),
            )
            assert code == 0, err
            code, out, err = run(capsys, "verify", "--cert", str(sat), "--format", "json")
            assert code == 0, err
            assert json.loads(out)["recomputed"]["rank"] == n
            obj = jsonio.load_file(str(sat))
            assert obj["braid"]["n"] == obj["rank"] == n
            assert abs(abs(_complex(obj["mu"])) - 1) < 1e-15
            assert abs(abs(_complex(obj["lambda"])) - 1) < 1e-12
            companion = sat

    def test_construct_reports_failed_verification(self, capsys, tmp_path, monkeypatch):
        # accepted factors, wrong splitting images: exit 1 naming the failed check
        path = tmp_path / "t23.json"
        run(capsys, *SEARCH, "--output", str(path))
        monkeypatch.setattr(augment, "split_gen", lambda i, j, p: None)
        code, out, err = run(capsys, "construct-aug", "--alpha-cert", str(path), "--gamma-cert", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: constructed satellite assignment failed verification: residuals")

    def test_construct_from_files(self, capsys, tmp_path):
        a_path, g_path, out_path = (
            tmp_path / "a.json",
            tmp_path / "g.json",
            tmp_path / "sat.json",
        )
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1", "--output", str(a_path))
        run(capsys, "ar-search", "--n", "2", "--word", "1 1 1 1 1", "--output", str(g_path))
        code, out, _ = run(
            capsys,
            "construct-aug", "--alpha-cert", str(a_path), "--gamma-cert", str(g_path),
            "--output", str(out_path),
        )
        assert code == 0
        obj = jsonio.load_file(str(out_path))
        assert obj["rank"] == 4
        assert obj["restarts"] == 0
        # the factors' residuals sit at the floor, and so do the satellite's
        assert max(obj[k] for k in ("residual_L", "residual_R", "ideal_residual")) <= 1e-12


SEARCH = ("ar-search", "--n", "2", "--word", "1 1 1")
CONSTRUCT = ("construct-aug", "--alpha-cert", "{cert}", "--gamma-cert", "{cert}")
VERIFY = ("verify", "--cert", "{cert}")


def _set_word(word):
    return lambda obj: obj["braid"].update(word=word)


def _repeat_generator(obj):
    obj["generators"].append(dict(obj["generators"][0]))


def _set_first_re(value):
    return lambda obj: obj["generators"][0].update(re=value)


def _deep_nesting(obj):
    return "[" * 100000  # the file's text in place of the certificate's JSON


def _overflow_mu(obj):
    # mu ** writhe = 3 ** 701 is past the largest double
    obj["braid"]["word"] = [1] * 701
    obj["mu"] = {"re": 3.0, "im": 0.0}


def _rank_deficient(obj):
    # the trefoil's a12 = a21 = 1 at mu = exp(i pi / 3), lambda = -mu^-3
    mu = cmath.exp(1j * math.pi / 3)
    obj["generators"] = [{"i": i, "j": j, "re": 1.0, "im": 0.0} for i, j in ((1, 2), (2, 1))]
    obj["mu"], obj["lambda"] = {"re": mu.real, "im": mu.imag}, {"re": (-mu**-3).real, "im": (-mu**-3).imag}
    obj["rank"] = 1


def _case(key, argv, edit, code, message):
    """One row, named by its own key: a row put in anywhere renames no other.

    The name is the one pytest gave the row when it numbered rows by position.
    """
    return pytest.param(argv, edit, code, message, id=f"argv{key}-{getattr(edit, '__name__', None)}-{code}-{message}")


# (key, argv, edit applied to a good trefoil certificate, exit code, what
# stderr says at exit 1 or stdout at exit 2); an edit that returns a str
# writes that text in place of the edited JSON; a usage error exits 1 like
# any other bad input, never 2 ("not found")
BAD_INPUT_CASES = (
    _case(0, SEARCH + ("--tol", "1e-3"), None, 1, "unrecognized arguments: --tol"),
    _case(1, SEARCH + ("--bogus", "1"), None, 1, "unrecognized arguments: --bogus 1"),
    _case(2, ("ar-search", "--word", "1 1 1"), None, 1, "the following arguments are required: --n"),
    _case(3, SEARCH + ("--restarts", "-3"), None, 1, "restarts must be >= 0"),
    _case(4, ("ar-search", "--n", "abc"), None, 1, "argument --n: invalid int value: 'abc'"),
    _case(5, CONSTRUCT + ("--tol", "1e-3"), None, 1, "unrecognized arguments: --tol"),
    _case(6, ("verify",), None, 1, "the following arguments are required: --cert"),
    _case(7, VERIFY, _set_word([1.9, 1, 1]), 1, "braid letter must be an integer, got 1.9"),
    _case(8, VERIFY, lambda obj: obj["braid"].update(n=2.7), 1, "braid n must be an integer, got 2.7"),
    _case(9, VERIFY, _set_word([True, 1, 1]), 1, "braid letter must be an integer, got True"),
    _case(10, VERIFY, _repeat_generator, 1, "certificate repeats generator a_1,2"),
    _case(11, VERIFY, lambda obj: obj.update(rank=7), 2, ""),
    _case(12, VERIFY, lambda obj: obj.update(tol="10"), 1, "tol must be a number, got '10'"),
    _case(13, VERIFY, _set_first_re(True), 1, "generator a_1,2.re must be a number, got True"),
    _case(14, VERIFY, _set_first_re("1.0"), 1, "generator a_1,2.re must be a number, got '1.0'"),
    _case(15, ("check", "--suite", "nope"), None, 1, "argument --suite: invalid choice: 'nope'"),
    # a randomized check with no word to draw, or none drawn, checks nothing
    _case(16, ("check", "--suite", "chainrule", "--count", "0"), None, 1, "count must be >= 1, got 0"),
    _case(17, ("check", "--suite", "chainrule", "--count", "-1"), None, 1, "count must be >= 1, got -1"),
    _case(18, ("check", "--suite", "transpose", "--count", "0"), None, 1, "count must be >= 1, got 0"),
    # random.Random(-s) draws what random.Random(s) draws
    _case(56, ("check", "--suite", "chainrule", "--seed", "-1"), None, 1, "seed must be >= 0, got -1"),
    _case(57, ("check", "--suite", "transpose", "--seed", "-7"), None, 1, "seed must be >= 0, got -7"),
    _case(19, ("check", "--suite", "chainrule", "--n", "1"), None, 1, "n must be >= 2"),
    _case(20, ("check", "--suite", "transpose", "--n", "0"), None, 1, "n must be >= 2"),
    _case(21, SEARCH + ("--seed", "-1"), None, 1, "seed must be >= 0, got -1"),
    # an exact suite whose parameters leave it no entry to compare checks nothing
    _case(22, ("check", "--suite", "commutes", "--k", "1"), None, 1, "k must be >= 2, got 1"),
    _case(23, ("check", "--suite", "psi", "--k", "0"), None, 1, "k must be >= 1, got 0"),
    _case(24, ("check", "--suite", "tau", "--n", "1"), None, 1, "n must be >= 2, got 1"),
    _case(25, ("check", "--suite", "sigma_n", "--k", "1"), None, 1, "k must be >= 2, got 1"),
    _case(26, ("check", "--suite", "blocks", "--n", "1"), None, 1, "n must be >= 2, got 1"),
    _case(27, ("check", "--suite", "blocks", "--p", "0"), None, 1, "p must be >= 1, got 0"),
    _case(28, VERIFY, lambda obj: obj.update(generators=5), 1, "(malformed: 'int' object is not iterable)"),
    _case(29, VERIFY, lambda obj: obj.pop("rank"), 1, "(missing 'rank')"),
    _case(30, VERIFY, _overflow_mu, 1, "error: OverflowError: complex exponentiation\n"),
    _case(31, VERIFY, _deep_nesting, 1, "JSON nested too deeply to load\n"),
    _case(32, ("satellite", "--iterated-torus", "--q", "3"), None, 1, "error: satellite --iterated-torus needs --p\n"),
    # a finite value whose fold overflows: not accepted in either format, null in JSON
    _case(33, VERIFY, _set_first_re(1e200), 2, "residual_R: inf"),
    _case(34, VERIFY + ("--format", "json"), _set_first_re(1e200), 2, '"residual_R": null'),
    _case(35, CONSTRUCT, _set_first_re(1e200), 1, "companion certificate is not accepted"),
    # a 1-strand search runs its restarts like any other
    _case(36, ("ar-search", "--n", "1", "--word", "", "--restarts", "0"), None, 2,
        "no certificate found after 0 restarts (inconclusive)"),
    # the free algebra encodes a strand index in ten bits
    _case(37, ("phi", "--n", "1024", "--word", ""), None, 1,
        "error: ambient size 1024 is over the free algebra's limit of 1023 strands\n"),
    # only a knot has a certificate: the empty B2 word closes to a 2-component unlink
    _case(38, ("ar-search", "--n", "2", "--word", ""), None, 1, "error: closure must be a knot\n"),
    _case(39, CONSTRUCT, _set_word([]), 1, "error: companion closure is not a knot\n"),
    _case(40, VERIFY, _set_word([]), 1, "error: closure must be a knot\n"),
    # residuals at 1e-31 but the relations off: a lambda off its mu, and a
    # lambda mu^w that underflows to 0 (the relations divide by it)
    _case(41, VERIFY, lambda obj: obj.update({"lambda": {"re": 5.0, "im": 0.0}}), 2, "ideal_residual: 9.455e+00"),
    _case(42, VERIFY, lambda obj: obj.update(mu={"re": 1e-300, "im": 0.0}), 2, "ideal_residual: inf"),
    _case(43, CONSTRUCT, lambda obj: obj.update(mu={"re": 1e-300, "im": 0.0}), 1, "ideal inf) over 1e-09"),
    # an exact solution where det A(mu) = 1 - mu + mu^2 = 0: rank 1 of 2, as stored
    _case(44, VERIFY, _rank_deficient, 2, "rank: 1\nNOT accepted"),
    _case(45, CONSTRUCT, _rank_deficient, 1, "companion certificate is not accepted"),
    # each satellite mode rejects the other mode's options rather than ignoring them
    _case(46, ("satellite", "--alpha", "1 1 1", "--k", "2", "--p", "2", "--q", "5"), None, 1,
        "error: satellite --q needs --iterated-torus\n"),
    _case(47, ("satellite", "--iterated-torus", "--p", "2,2", "--q", "3,1", "--alpha", "1", "--k", "7"), None, 1,
        "error: satellite --iterated-torus takes no --alpha, --k or --gamma\n"),
    # a malformed list or word names its option, or the word, and the form it takes
    _case(48, ("satellite", "--alpha", "1", "--k", "2", "--p", "2,2"), None, 1,
        "error: --p must be one integer strand count such as 2, got '2,2'\n"),
    _case(49, ("satellite", "--iterated-torus", "--p", "2,x", "--q", "3"), None, 1,
        "error: --p must be a comma list of integers such as 2,3, got '2,x'\n"),
    _case(50, ("satellite", "--iterated-torus", "--p", "2,2", "--q", "3,1.5"), None, 1,
        "error: --q must be a comma list of integers such as 2,3, got '3,1.5'\n"),
    _case(51, ("satellite", "--iterated-torus", "--p", "2,2", "--q", "3"), None, 1,
        "error: --p and --q must list as many integers, got 2 and 1\n"),
    _case(52, ("ar-search", "--n", "2", "--word", "1,1"), None, 1,
        "error: braid word must be integers separated by spaces, such as '1 -2 1', got '1,1'\n"),
    _case(53, ("phi", "--n", "2", "--word", "x"), None, 1,
        "error: braid word must be integers separated by spaces, such as '1 -2 1', got 'x'\n"),
    # every cabling degree goes through torus_braid, whose check names it
    _case(54, ("satellite", "--iterated-torus", "--p", "2,0", "--q", "3,1"), None, 1,
        "error: torus braid needs p >= 1, got 0\n"),
    _case(55, ("torus", "--p", "0", "--q", "3"), None, 1, "error: torus braid needs p >= 1, got 0\n"),
)


@pytest.mark.parametrize("argv, edit, code, message", BAD_INPUT_CASES)
def test_bad_input_is_rejected_up_front(capsys, tmp_path, argv, edit, code, message):
    path = tmp_path / "cert.json"
    run(capsys, *SEARCH, "--output", str(path))
    if edit is not None:
        obj = jsonio.load_file(str(path))
        text = edit(obj)
        path.write_text(text if isinstance(text, str) else json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run(capsys, *(arg.format(cert=path) for arg in argv))
    assert got == code
    assert not caught  # numpy's overflow warnings included
    if code == 1:
        assert out == ""
        assert message in err
        if not err.startswith("usage: "):  # argparse's own usage errors print the usage first
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        assert message in out
        if argv[0] == "verify":
            assert ('"accepted": false' if "json" in argv else "NOT accepted") in out


def _drop_generators(text):
    obj = json.loads(text)
    del obj["generators"]
    return json.dumps(obj)


@pytest.mark.parametrize(
    "edit, message",
    [(lambda text: text[:50], "Expecting"), (_drop_generators, "not a certificate object (missing 'generators')")],
    ids=["truncated", "no-generators"],
)
def test_load_error_names_the_bad_file(capsys, tmp_path, edit, message):
    # construct-aug reads two certificates: its error names the one that does not load, once
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    run(capsys, *SEARCH, "--output", str(good))
    bad.write_text(edit(good.read_text()))
    code, out, err = run(capsys, "construct-aug", "--alpha-cert", str(good), "--gamma-cert", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ") and message in err
    assert err.count(str(bad)) == 1 and str(good) not in err


@pytest.mark.parametrize("argv", [("--help",), ("ar-search", "--help")])
def test_help_exits_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "usage: augrank" in out


def test_huge_n_names_a_few_generators(capsys, tmp_path):
    # a trefoil certificate claiming 300 strands lacks 89698 generators;
    # the error counts them and names only the first few
    path = tmp_path / "cert.json"
    run(capsys, *SEARCH, "--output", str(path))
    obj = jsonio.load_file(str(path))
    obj["braid"]["n"] = 300
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 1
    assert out == ""
    assert "89700 generators" in err and "missing 89698" in err
    assert len(err.encode()) < 1024


def test_successive_calls_behave_like_separate_runs(capsys, tmp_path):
    # the parser is built once per process; reusing it must not carry state
    # from one call into the next
    assert build_parser() is build_parser()
    path = tmp_path / "cert.json"
    run(capsys, *SEARCH, "--output", str(path))
    calls = [
        ("check", "--suite", "nope"),
        ("verify", "--cert", str(path)),
        ("ar-search", "--n", "2", "--word", "1 1 1 1 1", "--seed", "3", "--format", "json"),
    ]
    in_sequence = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert in_sequence == fresh
    assert [code for code, _, _ in in_sequence] == [1, 0, 0]
    assert "invalid choice" in in_sequence[0][2]
    assert json.loads(in_sequence[2][1])["config"]["restarts"] == 256


class TestCheckCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--suite", "chainrule", "--n", "3", "--count", "15"),
            ("check", "--suite", "transpose", "--n", "3", "--count", "15"),
            ("check", "--suite", "psi", "--k", "2", "--p", "2"),
            ("check", "--suite", "commutes", "--k", "2", "--p", "2"),
            ("check", "--suite", "sigma_n", "--k", "2", "--p", "2"),
            ("check", "--suite", "tau", "--n", "4"),
            ("check", "--suite", "blocks", "--n", "2", "--p", "2"),
        ],
    )
    def test_suites_pass(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "pass"
        assert all(r["status"] == "pass" for r in obj["reports"])

    def test_failing_suite_prints_its_first_diffs(self, capsys, monkeypatch):
        # every tau closed form off by a12: exit 1, ten diff lines per report
        monkeypatch.setattr(checks, "tau_closed_form", lambda m, p, i, j, amb: NCPoly.gen(amb, 1, 2))
        code, out, _ = run(capsys, "check", "--suite", "tau", "--n", "3")
        assert code == 1
        lines = out.splitlines()
        assert lines[1] == "fail: ascending band word closed form {'n': 3}"
        assert lines[2] == "  diff: {'m': 1, 'p': 1, 'i': 1, 'j': 2, 'lhs': 'a12', 'rhs': '-a21'}"
        assert [line[:8] for line in lines[2:-1]] == ["  diff: "] * 10
        assert lines[-1] == "CHECK FAILURES"

    def test_psi_suite_echoes_config(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "psi", "--k", "3", "--p", "2")
        assert code == 0
        assert "config: command=check suite=psi" in out
        assert "all checks passed" in out


class TestTermBudget:
    def test_budget_overflow_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("KCH_TERM_BUDGET", "1")
        code, _, err = run(capsys, "phi", "--n", "2", "--word", "1 1 1")
        assert code == 1
        assert "budget" in err
        assert "numeric" in err  # message points at the numeric path
