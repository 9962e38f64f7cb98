"""The matseq command line: verbs, JSON schemas, exit codes, batch mode."""

import io
import json
import os
import random
import subprocess
import sys

import pytest

import matseq
from matseq import Mat2, Q, big_delta, first_obstruction, is_commutative, maximal_reduction, sigma
from matseq.cli import main

from genseq import rand_triangularizable_seq

PAIR_Q = {"ring": {"kind": "Q"},
          "matrices": [[[1, 0], [0, 0]], [[0, 2], [3, 0]]]}
UPPER_Q = {"ring": {"kind": "Q"},
           "matrices": [[[1, 2], [0, 3]], [[4, 5], [0, 6]]]}
STABLE_GF5 = {"ring": {"kind": "GF", "p": 5},
              "matrices": [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]}
TRIPLE_Q = {"ring": {"kind": "Q"},
            "matrices": [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


class TestAnalyze:
    def test_full_report(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", PAIR_Q)
        code, doc = run(capsys, ["analyze", f])
        assert code == 0
        assert doc["ring"] == {"kind": "Q"}
        assert doc["n"] == 2
        assert doc["commutative"] is False
        assert doc["triangularizable"] is False
        assert doc["stable"] is True
        assert doc["semisimple"] is True
        assert doc["tag"] == "Stable1a"
        assert doc["reduced_length"] == 2

    def test_verify_marks_output(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", STABLE_GF5)
        code, doc = run(capsys, ["analyze", f, "--verify"])
        assert code == 0
        assert doc["verified"] is True

    def test_verify_silent_off_gf(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", PAIR_Q)
        code, doc = run(capsys, ["analyze", f, "--verify"])
        assert code == 0
        assert "verified" not in doc


class TestTri:
    def test_flo_negative(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", TRIPLE_Q)
        code, doc = run(capsys, ["tri", f])
        assert code == 0
        assert doc == {"triangularizable": False, "reduced_length": 3}

    def test_fast_agrees(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", TRIPLE_Q)
        code, doc = run(capsys, ["tri", f, "--method", "fast"])
        assert code == 0 and doc["triangularizable"] is False

    def test_construct_returns_witness(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", UPPER_Q)
        code, doc = run(capsys, ["tri", f, "--method", "construct"])
        assert code == 0
        assert doc["triangularizable"] is True
        assert doc["g"] == [["1", "0"], ["0", "1"]]

    def test_large_prime_modulus_answers(self, tmp_path):
        doc = {"ring": {"kind": "GF", "p": 10**18 + 3},
               "matrices": [[[1, 2], [3, 4]]]}
        f = write(tmp_path, "s.json", doc)
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(matseq.__file__)))
        r = subprocess.run([sys.executable, "-m", "matseq.cli", "tri", f],
                           env=env, capture_output=True, text=True, timeout=20)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["reduced_length"] == 1


    def test_unfactorable_discriminant_refused(self, tmp_path):
        # the anchor discriminant 4m needs squarefree_part; m has two large factors
        m = (2 ** 61 - 1) * (2 ** 31 - 1)
        doc = {"ring": {"kind": "Q"}, "matrices": [[[0, m], [1, 0]], [[1, 0], [0, 0]]]}
        f = write(tmp_path, "s.json", doc)
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(matseq.__file__)))
        r = subprocess.run([sys.executable, "-m", "matseq.cli", "canon", f],
                           env=env, capture_output=True, text=True, timeout=20)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("matseq:") and "Traceback" not in r.stderr

    def test_huge_discriminant_refused_quickly(self, tmp_path):
        # a 2,000-digit denominator: squarefree_part refuses by bit length
        # before trial division, and the message does not print the number
        doc = {"ring": {"kind": "Q"},
               "matrices": [[["1/" + "9" * 2000, "1"], ["3", "2"]], [["1", "2"], ["3", "4"]]]}
        f = write(tmp_path, "s.json", doc)
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(matseq.__file__)))
        r = subprocess.run([sys.executable, "-m", "matseq.cli", "canon", f],
                           env=env, capture_output=True, text=True, timeout=2)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("matseq:") and "Traceback" not in r.stderr
        assert len(r.stderr) < 200


class TestSimilar:
    def test_similar_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  {"ring": {"kind": "Q"}, "matrices": [[[1, 0], [0, 0]]]})
        b = write(tmp_path, "b.json",
                  {"ring": {"kind": "Q"}, "matrices": [[[0, 0], [0, 1]]]})
        code, doc = run(capsys, ["similar", a, b])
        assert code == 0
        assert doc["similar"] is True
        assert doc["det_is_unit"] is True
        assert "g" in doc

    def test_not_similar(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  {"ring": {"kind": "Q"}, "matrices": [[[1, 0], [0, 0]]]})
        b = write(tmp_path, "b.json",
                  {"ring": {"kind": "Q"}, "matrices": [[[2, 0], [0, 0]]]})
        code, doc = run(capsys, ["similar", a, b])
        assert code == 0
        assert doc == {"similar": False}

    def test_rational_witness_is_an_integer_matrix(self, tmp_path, capsys):
        from matseq import GroupElement, Mat2, conjugate, seq
        a = seq(Q, [[["1/2", 0], [0, 0]], [[1, "1/3"], ["1/5", 0]]])
        g = GroupElement(Mat2.from_rows(Q, [["2/3", 1], [1, 3]]))
        fa = write(tmp_path, "a.json", a.to_json())
        fb = write(tmp_path, "b.json", conjugate(g, a).to_json())
        code, doc = run(capsys, ["similar", fa, fb])
        assert code == 0 and doc["similar"] is True
        assert all("/" not in x for row in doc["g"] for x in row)

    def test_length_mismatch_is_input_error(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  {"ring": {"kind": "Q"}, "matrices": [[[1, 0], [0, 0]]]})
        b = write(tmp_path, "b.json", PAIR_Q)
        code, _ = run(capsys, ["similar", a, b])
        assert code == 2


class TestClassifyCanon:
    def test_classify_booleans(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", UPPER_Q)
        code, doc = run(capsys, ["classify", f])
        assert code == 0
        assert doc == {"commutative": False, "triangularizable": True,
                       "stable": False, "semisimple": False,
                       "reduced_length": 2}

    def test_canon_schema_and_determinism(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", PAIR_Q)
        code1 = main(["canon", f])
        out1 = capsys.readouterr().out
        code2 = main(["canon", f])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["tag"] == "Stable1a"
        assert doc["permutation"] == [1, 2]
        assert doc["form"]["matrices"][1][0][1] == "1"  # b2 = 1
        assert "extension" not in doc

    def test_canon_reports_extension(self, tmp_path, capsys):
        s = {"ring": {"kind": "Q"},
             "matrices": [[[0, 2], [1, 0]], [[0, 1], [1, 1]]]}
        f = write(tmp_path, "s.json", s)
        code, doc = run(capsys, ["canon", f])
        assert code == 0
        assert doc["extension"] == {"kind": "Qsqrt", "d": "2"}


class TestObstructionScan:
    @pytest.mark.parametrize("verb", ["analyze", "classify", "canon"])
    def test_one_scan_per_document(self, verb, tmp_path, capsys, count_calls, monkeypatch):
        s = rand_triangularizable_seq(random.Random(8), Q, 8)
        assert not is_commutative(s)
        f = write(tmp_path, "s.json", s.to_json())
        scans, reductions = count_calls(first_obstruction), count_calls(maximal_reduction)
        sigmas, deltas = count_calls(sigma), count_calls(big_delta)
        discs, disc = [], Mat2.disc
        monkeypatch.setattr(Mat2, "disc", lambda m: discs.append(None) or disc(m))
        code, _ = run(capsys, [verb, f])
        assert code == 0
        # the definitional sigma and Delta are reference checks only
        assert (len(scans), len(reductions), len(sigmas), len(deltas)) == (1, 1, 0, 0)
        if verb != "canon":
            # the Profile answers every zero-discriminant test; the one
            # discriminant left is the singlet test of the first kept term
            assert len(discs) <= 1


class TestInvariants:
    def test_default_report(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", TRIPLE_Q)
        code, doc = run(capsys, ["invariants", f])
        assert code == 0
        assert doc["trace"] == ["1", "1", "1"]
        assert len(doc["sigma"]) == 3
        assert len(doc["delta"]) == 1
        assert doc["delta"][0]["value"] == "1"

    def test_phi(self, tmp_path, capsys):
        f = write(tmp_path, "s.json",
                  {"ring": {"kind": "Q"},
                   "matrices": [[[2, 0], [0, 0]], [[1, 1], [3, 0]]]})
        code, doc = run(capsys, ["invariants", f, "--phi"])
        assert code == 0
        assert doc["values"] == ["2", "4", "1", "7", "2"]
        assert doc["n"] == 2

    def test_psi(self, tmp_path, capsys):
        f = write(tmp_path, "s.json",
                  {"ring": {"kind": "Q"},
                   "matrices": [[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                             [[0, 2], [0, 1]]]})
        code, doc = run(capsys, ["invariants", f, "--psi"])
        assert code == 0
        assert doc["proj"] == ["1", "2"]

    def test_psi_refuses_the_integers(self, tmp_path, capsys):
        # the leading delta 10 is no unit of Z: a refusal (3), not an input error
        f = write(tmp_path, "s.json",
                  {"ring": {"kind": "Z"},
                   "matrices": [[["1", "2"], ["0", "3"]], [["2", "4"], ["0", "1"]]]})
        assert main(["invariants", f, "--psi"]) == 3
        assert "needs a field" in capsys.readouterr().err

    def test_all_words(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", PAIR_Q)
        code, doc = run(capsys, ["invariants", f, "--all-words", "2"])
        assert code == 0
        got = {tuple(w["word"]) for w in doc["words"]}
        assert got == {(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)}

    def test_phi_psi_mutually_exclusive(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", PAIR_Q)
        assert main(["invariants", f, "--phi", "--psi"]) == 2
        capsys.readouterr()

    def test_report_size_guard(self, tmp_path, capsys):
        from matseq.cli import MAX_REPORT_TRIPLES
        n = 3
        while n * (n - 1) * (n - 2) // 6 <= MAX_REPORT_TRIPLES:
            n += 1
        doc = {"ring": {"kind": "Q"}, "matrices": [[[j, 1], [0, 0]] for j in range(n)]}
        f = write(tmp_path, "s.json", doc)
        assert main(["invariants", f]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("matseq:") and "Traceback" not in captured.err

    def test_all_words_size_guard(self, tmp_path, capsys):
        from matseq.invariants import MAX_TRACE_WORDS
        k = MAX_TRACE_WORDS.bit_length()  # 2 + 4 + ... + 2^k > MAX_TRACE_WORDS
        f = write(tmp_path, "s.json", PAIR_Q)
        assert main(["invariants", f, "--all-words", str(k)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("matseq:") and "Traceback" not in captured.err

    def test_result_too_large_to_print(self, tmp_path):
        # the answer is computed, but its integers pass Python's str limit
        b = "9" * 2200
        doc = {"ring": {"kind": "Q"}, "matrices": [[[b, 1], [0, 2]], [[1, 0], [b, 3]]]}
        f = write(tmp_path, "s.json", doc)
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(matseq.__file__)))
        r = subprocess.run([sys.executable, "-m", "matseq.cli", "invariants", f, "--phi"],
                           env=env, capture_output=True, text=True, timeout=20)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("matseq:") and "Traceback" not in r.stderr


class TestReconstruct:
    def test_semisimple(self, tmp_path, capsys):
        v = {"ring": {"kind": "Q"}, "n": 2,
             "values": ["2", "4", "1", "7", "2"]}
        f = write(tmp_path, "v.json", v)
        code, doc = run(capsys, ["reconstruct", f, "--form", "ss"])
        assert code == 0
        assert doc["matrices"] == [[["2", "0"], ["0", "0"]],
                                [["1", "1"], ["3", "0"]]]

    def test_triangular(self, tmp_path, capsys):
        w = {"ring": {"kind": "Q"}, "n": 3,
             "values": ["1", "1", "0", "0", "1", "0"],
             "proj": ["1", "2"]}
        f = write(tmp_path, "w.json", w)
        code, doc = run(capsys, ["reconstruct", f, "--form", "tri"])
        assert code == 0
        assert len(doc["solutions"]) == 2
        assert doc["solutions"][0]["matrices"][0] == [["1", "0"], ["0", "0"]]

    def test_degenerate_vector_is_input_error(self, tmp_path, capsys):
        v = {"ring": {"kind": "Q"}, "n": 2,
             "values": ["2", "2", "1", "7", "2"]}
        f = write(tmp_path, "v.json", v)
        code, _ = run(capsys, ["reconstruct", f, "--form", "ss"])
        assert code == 2


class TestReconstructSchema:
    """n is a JSON integer or a digit string and plucker_full a JSON boolean;
    anything else is an input error, not a silent coercion."""

    PHI = {"ring": {"kind": "Q"}, "values": ["2", "4", "1", "7", "2"]}
    PSI = {"ring": {"kind": "Q"}, "n": 3,
           "values": ["1", "1", "0", "0", "1", "0"], "proj": ["1", "2"]}

    def _run(self, tmp_path, capsys, doc, form):
        code = main(["reconstruct", write(tmp_path, "v.json", doc), "--form", form])
        return code, capsys.readouterr()

    def test_digit_string_n_accepted(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, {**self.PHI, "n": "2"}, "ss")
        assert code == 0
        assert json.loads(out.out)["matrices"][0] == [["2", "0"], ["0", "0"]]

    @pytest.mark.parametrize("n", [2.9, True, None, [2]], ids=repr)
    @pytest.mark.parametrize("form", ["ss", "tri"])
    def test_non_integer_n_rejected(self, tmp_path, capsys, n, form):
        doc = {**(self.PHI if form == "ss" else self.PSI), "n": n}
        code, out = self._run(tmp_path, capsys, doc, form)
        assert code == 2 and out.out == ""
        assert "n must be an integer" in out.err

    def test_float_string_n_rejected(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, {**self.PHI, "n": "2.9"}, "ss")
        assert code == 2 and out.out == ""

    @pytest.mark.parametrize("flag", ["false", 0, 1, None], ids=repr)
    def test_non_boolean_plucker_full_rejected(self, tmp_path, capsys, flag):
        code, out = self._run(tmp_path, capsys, {**self.PSI, "plucker_full": flag}, "tri")
        assert code == 2 and out.out == ""
        assert "plucker_full must be a boolean" in out.err

    def test_boolean_plucker_full_accepted(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, capsys, {**self.PSI, "plucker_full": False}, "tri")
        assert code == 0
        code, out = self._run(tmp_path, capsys, {**self.PSI, "plucker_full": True}, "tri")
        assert code == 2 and "first pair commutes" in out.err


class TestOracleVerb:
    def test_tri(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", STABLE_GF5)
        code, doc = run(capsys, ["oracle", "tri", f])
        assert code == 0
        assert doc == {"triangularizable": False}

    def test_similar(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  {"ring": {"kind": "GF", "p": 3}, "matrices": [[[1, 0], [0, 0]]]})
        b = write(tmp_path, "b.json",
                  {"ring": {"kind": "GF", "p": 3}, "matrices": [[[0, 0], [0, 1]]]})
        code, doc = run(capsys, ["oracle", "similar", a, b])
        assert code == 0
        assert doc["similar"] is True
        assert "g" in doc

    def test_wrong_ring_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", PAIR_Q)
        code, _ = run(capsys, ["oracle", "tri", f])
        assert code == 3


class TestErrorsAndBatch:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.strip()

    def test_missing_key_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "s.json", {"ring": {"kind": "Q"}})
        assert main(["analyze", f]) == 2
        capsys.readouterr()

    def test_bad_ring_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "s.json",
                  {"ring": {"kind": "GF", "p": 4}, "matrices": [[[1, 0], [0, 1]]]})
        assert main(["analyze", f]) == 3
        capsys.readouterr()

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PAIR_Q)))
        code, doc = run(capsys, ["tri", "-"])
        assert code == 0
        assert doc["triangularizable"] is False

    def test_ndjson_batch_isolation(self, tmp_path, capsys):
        lines = [json.dumps(PAIR_Q), "{broken", json.dumps(UPPER_Q)]
        path = tmp_path / "batch.ndjson"
        path.write_text("\n".join(lines) + "\n")
        code = main(["tri", str(path), "--ndjson"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 2  # worst per-line code
        assert len(out) == 3
        assert json.loads(out[0])["triangularizable"] is False
        assert json.loads(out[1])["code"] == 2
        assert "error" in json.loads(out[1])
        assert json.loads(out[2])["triangularizable"] is True

    def test_ndjson_similar_pairs(self, tmp_path, capsys):
        line = {"a": {"ring": {"kind": "Q"}, "matrices": [[[1, 0], [0, 0]]]},
                "b": {"ring": {"kind": "Q"}, "matrices": [[[0, 0], [0, 1]]]}}
        path = tmp_path / "batch.ndjson"
        path.write_text(json.dumps(line) + "\n")
        code = main(["similar", str(path), "--ndjson"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert json.loads(out[0])["similar"] is True

    def test_ndjson_collects_garbage_every_thousand_lines(self, tmp_path, capsys, monkeypatch):
        # gen-2 collections seldom run in a long ndjson child, so it runs a
        # full one every 1,000 lines itself
        import matseq.cli as cli
        calls = []
        monkeypatch.setattr(cli.gc, "collect", lambda *args: calls.append("collect"))
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli.gc, "unfreeze", lambda: calls.append("unfreeze"))
        doc = {"ring": {"kind": "Q"}, "matrices": [[[1, 0], [0, 1]]]}
        path = tmp_path / "batch.ndjson"
        path.write_text((json.dumps(doc) + "\n") * 2_000)
        assert main(["classify", str(path), "--ndjson"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2_000
        assert calls == ["freeze", "collect", "collect", "unfreeze"]

    def test_console_entry_raises_system_exit(self, tmp_path, capsys):
        from matseq.cli import console_main
        f = write(tmp_path, "s.json", UPPER_Q)
        import sys
        monkey_argv = ["matseq", "tri", f]
        old = sys.argv
        sys.argv = monkey_argv
        try:
            with pytest.raises(SystemExit) as exc:
                console_main()
            assert exc.value.code == 0
        finally:
            sys.argv = old
        capsys.readouterr()


class TestHostileInput:
    @pytest.mark.parametrize("doc", [
        {"ring": {"kind": "Q"}, "matrices": [[["1/0", "0"], ["0", "1"]]]},
        {"ring": {"kind": "GF", "p": 3.7}, "matrices": [[[1, 0], [0, 1]]]},
        {"ring": {"kind": "Q"}, "matrices": [[["1e2000000", "0"], ["0", "1"]]]},
    ], ids=["zero-denominator", "float-modulus", "exponent"])
    def test_refused_as_input_error(self, doc, tmp_path, capsys):
        f = write(tmp_path, "s.json", doc)
        assert main(["tri", f]) == 2
        err = capsys.readouterr().err
        assert err.startswith("matseq:") and "Traceback" not in err


# the exit code of every error class, as the CLI mapped them before the
# codes were declared on the classes
SEED_EXIT_CODES = {
    "RingMismatch": 2, "UnsupportedRing": 3, "ExactDivisionError": 2,
    "BadIndex": 2, "ZeroVector": 2, "Char2Unsupported": 3,
    "LengthMismatch": 2, "LengthTooShort": 2, "TowerTooDeep": 3,
    "NotTriangularizable": 2, "CommutativeInput": 2, "NotCommutative": 2,
    "NotCanonical1a": 2, "DegenerateDiscriminant": 2, "ZeroC2": 2,
    "NotApplicable": 2, "TooLarge": 3, "InternalInconsistency": 4,
}
ERROR_CLASSES = [c for c in vars(matseq.errors).values()
                 if isinstance(c, type) and issubclass(c, matseq.errors.MatseqError)
                 and c is not matseq.errors.MatseqError]


class TestExitCodes:
    def test_every_error_class_is_listed(self):
        assert sorted(c.__name__ for c in ERROR_CLASSES) == sorted(SEED_EXIT_CODES)

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_exit_code(self, cls):
        from matseq.cli import _classify_exception
        assert cls.exit_code == SEED_EXIT_CODES[cls.__name__]
        assert _classify_exception(cls("x")) == SEED_EXIT_CODES[cls.__name__]

    @pytest.mark.parametrize("exc", [ValueError("x"), KeyError("x"), TypeError("x"),
                                     OSError("x"), json.JSONDecodeError("x", "", 0)])
    def test_python_input_errors_exit_2(self, exc):
        from matseq.cli import _classify_exception
        assert _classify_exception(exc) == 2
