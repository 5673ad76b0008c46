import argparse
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from xyreg import cli
from xyreg.cli import main
from xyreg.pattern import PatternSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_text(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2")
    assert code == 0
    assert "f11" in out and "f21" in out and "×" in out
    assert "f[1,2] = x[1,1]*y[1,2] + x[1,2]*y[2,2]" in out
    assert out.endswith("\n")


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["selected"]) == 8
    assert payload["column_limits"] == [4, 3, 1, 1]
    assert [s["label"] for s in payload["selected"]][:4] == \
        ["f[1,1]", "f[2,1]", "f[3,1]", "f[4,1]"]


def test_gen_usage_errors(capsys):
    assert run(capsys, "gen", "--n", "1")[0] == 2
    assert run(capsys, "gen")[0] == 2
    assert run(capsys, "gen", "--n", "3", "--prime", "10")[0] == 2
    assert run(capsys, "gen", "--n", "3", "--prime", "3")[0] == 2  # prime must exceed n
    assert run(capsys, "bogus-command")[0] == 2


def test_certify(capsys):
    code, out, _ = run(capsys, "certify", "--n", "5")
    assert code == 0
    assert "verdict: certified" in out


def test_certify_json_step_count(capsys):
    code, out, _ = run(capsys, "certify", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "certified"
    assert len(payload["steps"]) == 4
    assert payload["steps"][2]["kind"] == "COPRIME_EXTEND"


def test_oracle_default_sequence(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--method", "hilbert")
    assert code == 0
    assert "verdict: regular" in out


FULL_SET = """\
# all four entries of the 2x2 product
x[1,1]*y[1,1] + x[1,2]*y[2,1]
x[1,1]*y[1,2] + x[1,2]*y[2,2]
x[2,1]*y[1,1] + x[2,2]*y[2,1]
x[2,1]*y[1,2] + x[2,2]*y[2,2]
"""


def test_oracle_input_file_negative(capsys, tmp_path):
    path = tmp_path / "full_set.txt"
    path.write_text(FULL_SET)
    code, out, _ = run(capsys, "oracle", "--n", "2", "--input", str(path),
                       "--method", "colon")
    assert code == 1
    assert "first failure at index 4" in out
    code, out, _ = run(capsys, "oracle", "--n", "2", "--input", str(path),
                       "--method", "colon", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not-regular" and payload["first_failure"] == 4


def test_hilbert_oracle_reports_the_first_differing_degree(capsys, tmp_path):
    path = tmp_path / "full_set.txt"
    path.write_text(FULL_SET)
    line = "degree 4: Hilbert function 195, complete intersection 192"
    code, out, _ = run(capsys, "oracle", "--n", "2", "--input", str(path))
    assert code == 1
    assert f"  {line}\n" in out
    code, out, _ = run(capsys, "oracle", "--n", "2", "--input", str(path),
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["details"] == [line]


@pytest.mark.parametrize("element, detail", [("0", "index 2: zero element"),
                                             ("5", "index 2: the ideal becomes the whole ring")])
def test_both_oracles_name_a_degenerate_index(capsys, tmp_path, element, detail):
    path = tmp_path / "degenerate.txt"
    path.write_text(f"x[1,1]*y[1,1] + x[1,2]*y[2,1]\n{element}\n")
    details = {}
    for method in ("hilbert", "colon"):
        code, out, _ = run(capsys, "oracle", "--n", "2", "--input", str(path),
                           "--method", method, "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "not-regular"
        details[method] = payload["details"]
    assert details == {"hilbert": [detail],
                       "colon": ["index 1: non-zerodivisor, ideal still proper", detail]}


def test_oracle_budget_inconclusive(capsys):
    code, _, err = run(capsys, "oracle", "--n", "2", "--budget-pairs", "1")
    assert code == 3
    assert "inconclusive" in err


def test_an_out_of_memory_run_is_inconclusive(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "sequence_oracle", exhausted)
    assert run(capsys, "oracle", "--n", "2") == (3, "", "inconclusive: out of memory\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmPeak")
def test_running_out_of_memory_exits_3_without_a_traceback():
    # the limit is the address space the imports take, measured in a child
    # of the same interpreter, plus a margin: colon n=7 needs about 30 MB
    # past its imports, and margins from 2 to 28 MB all make an allocation
    # raise MemoryError partway through the walk, whatever the imports weigh
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    probe = subprocess.run(
        [sys.executable, "-c", "import xyreg.cli; print(next(line.split()[1] for line "
         "in open('/proc/self/status') if line.startswith('VmPeak:')))"],
        env=env, capture_output=True, text=True, check=True)
    limit = (int(probe.stdout) << 10) + (15 << 20)  # VmPeak is in kB
    proc = subprocess.run(
        [sys.executable, "-m", "xyreg.cli", "oracle", "--n", "7", "--method", "colon"],
        env=env, capture_output=True, timeout=600,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (3, b"", b"inconclusive: out of memory\n")


@pytest.mark.parametrize("method", ["hilbert", "colon"])
def test_a_failed_cross_check_is_neither_a_verdict_nor_a_usage_error(capsys, tmp_path,
                                                                     monkeypatch, method):
    import xyreg.hilbert as hilbert
    import xyreg.regseq as regseq

    # the colon oracle finds a zerodivisor in the full 2x2 set, and its
    # witness now fails the re-check; the Hilbert run never sees its leads
    # reach codimension k, though its series agree with the complete
    # intersection's to the end
    monkeypatch.setattr(regseq, "colon_witness_holds", lambda *args: False)
    monkeypatch.setattr(hilbert, "_codimension", lambda numerator, most: 0)
    path = tmp_path / "seq.txt"
    path.write_text(FULL_SET if method == "colon" else "x[1,1]*y[1,1] + x[1,2]*y[2,1]\n")
    code, out, err = run(capsys, "oracle", "--n", "2", "--input", str(path),
                         "--method", method)
    assert (code, out) == (4, "")
    assert err.startswith("cross-check failed: ") and err.count("\n") == 1


def test_oracle_bad_input_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x[9,9]\n")
    code, _, err = run(capsys, "oracle", "--n", "2", "--input", str(path))
    assert code == 2
    assert "bad.txt:1" in err


def test_counterexample(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert "all checks passed" in out
    code, out, _ = run(capsys, "counterexample", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["residue"] == "0"
    # the identity is integral, so it holds over any prime field too
    code, _, _ = run(capsys, "counterexample", "--field", "gfp", "--prime", "2")
    assert code == 0


def test_search(capsys):
    code, out, _ = run(capsys, "search", "--n", "2")
    assert code == 0
    assert "final length: 3" in out
    assert "rejected f[2,2]: not-regular" in out
    code, out, _ = run(capsys, "search", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["final_length"] == 3
    assert payload["rejected"] == [{"entry": "f[2,2]", "reason": "not-regular"}]


def test_search_reports_differ_only_in_their_method(capsys):
    for fmt in ("text", "json"):
        reports = {}
        for method in ("hilbert", "colon"):
            code, out, _ = run(capsys, "search", "--n", "3", "--method", method,
                               "--format", fmt)
            assert code == 0
            reports[method] = out
        if fmt == "json":
            hilbert, colon = (json.loads(reports[m]) for m in ("hilbert", "colon"))
            assert (hilbert.pop("method"), colon.pop("method")) == ("hilbert", "colon")
            assert hilbert == colon
        else:
            hilbert, colon = (reports[m].splitlines() for m in ("hilbert", "colon"))
            assert (hilbert[0], colon[0]) == ("oracle method: hilbert", "oracle method: colon")
            assert hilbert[1:] == colon[1:]


def test_gb_lex_example(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x[1,1] - y[1,1]\ny[1,1]^2\n")
    code, out, _ = run(capsys, "gb", "--n", "2", "--input", str(path),
                       "--order", "lex")
    assert code == 0
    assert out.splitlines() == ["x[1,1] + 32002*y[1,1]", "y[1,1]^2"]


def test_gb_column_one_echo(capsys, tmp_path):
    path = tmp_path / "col1.txt"
    path.write_text("7*x[1,1]*y[1,1] + 7*x[1,2]*y[2,1]\n"
                    "x[2,1]*y[1,1] + x[2,2]*y[2,1]\n")
    code, out, _ = run(capsys, "gb", "--n", "2", "--input", str(path),
                       "--order", "paper")
    assert code == 0
    assert out.splitlines() == ["x[1,1]*y[1,1] + x[1,2]*y[2,1]",
                                "x[2,2]*y[2,1] + x[2,1]*y[1,1]"]


def test_gb_usage_errors(capsys, tmp_path):
    assert run(capsys, "gb", "--n", "2")[0] == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n0\n")
    assert run(capsys, "gb", "--n", "2", "--input", str(empty))[0] == 2
    missing = tmp_path / "missing.txt"
    assert run(capsys, "gb", "--n", "2", "--input", str(missing))[0] == 2


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "certify", "--n", "2", "--format", "json",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "certified"
    assert out_path.read_text().endswith("\n")


def test_text_and_json_verdicts_agree(capsys, tmp_path):
    path = tmp_path / "full_set.txt"
    path.write_text(FULL_SET)
    for fmt in ("text", "json"):
        code, _, _ = run(capsys, "oracle", "--n", "2", "--input", str(path),
                         "--method", "hilbert", "--format", fmt)
        assert code == 1


def test_flags_belong_to_their_subcommand(capsys):
    assert run(capsys, "certify", "--n", "2", "--order", "lex")[0] == 2
    assert run(capsys, "gen", "--n", "2", "--method", "colon")[0] == 2
    assert run(capsys, "counterexample", "--n", "2")[0] == 2
    assert run(capsys, "recheck", "--n", "2")[0] == 2


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(capsys, monkeypatch):
    run(capsys, "gen", "--n", "2")  # builds the parser if no earlier call has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "oracle", "--method", "nope")[0] == 2
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: xyreg")
    code, out, _ = run(capsys, "oracle", "--n", "3", "--method", "colon", "--format", "json")
    assert code == 0 and json.loads(out)["method"] == "colon"
    code, out, _ = run(capsys, "oracle", "--n", "3", "--format", "json")
    assert code == 0 and json.loads(out)["method"] == "hilbert"  # the default comes back
    assert run(capsys, "certify", "--n", "3", "--order", "lex")[0] == 2
    assert built == []


def test_importing_the_cli_builds_no_parser():
    # a fresh interpreter, so that no earlier import or call has built one;
    # building the parser afterwards shows that the counter counts
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(self) or init(self, *a, **k)\n"
            "import xyreg.cli\n"
            "print(len(built))\n"
            "xyreg.cli.build_parser()\n"
            "print(len(built))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0", str(1 + len(cli.SUBCOMMANDS))]


def certificate_file(capsys, tmp_path, *argv):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", *argv, "--format", "json", "--out", str(path))
    assert code == 0
    return path


def test_recheck_genuine_certificates(capsys, tmp_path):
    for argv in [("--n", str(n)) for n in range(2, 9)] + [("--n", "3", "--field", "rat")]:
        path = certificate_file(capsys, tmp_path, *argv)
        code, out, _ = run(capsys, "recheck", "--input", str(path))
        assert code == 0 and out == "verdict: certified\n", argv
    code, out, _ = run(capsys, "recheck", "--input", str(path), "--format", "json")
    assert code == 0 and json.loads(out) == {"verdict": "certified"}


def test_certify_and_recheck_build_the_pattern_once(capsys, tmp_path, monkeypatch):
    build = PatternSpec.build.__func__
    calls = []
    monkeypatch.setattr(PatternSpec, "build",
                        classmethod(lambda cls, n: calls.append(n) or build(cls, n)))
    path = certificate_file(capsys, tmp_path, "--n", "5")
    assert calls == [5]
    calls.clear()
    assert run(capsys, "recheck", "--input", str(path))[:2] == (0, "verdict: certified\n")
    assert calls == [5]


def test_recheck_forged_certificate(capsys, tmp_path):
    path = certificate_file(capsys, tmp_path, "--n", "3")
    data = json.loads(path.read_text())
    data["steps"].pop()
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "recheck", "--input", str(path))
    assert code == 1 and out == "verdict: failed\n"


def test_recheck_usage_errors(capsys, tmp_path):
    good = json.loads(certificate_file(capsys, tmp_path, "--n", "2").read_text())
    missing_field = {k: v for k, v in good.items() if k != "field"}
    cases = ["{not json", "[" * 100000 + "]" * 100000, json.dumps(missing_field),
             json.dumps(dict(good, n="2")), json.dumps(dict(good, n=1)),
             json.dumps(dict(good, field={"kind": "real"})),
             json.dumps(dict(good, field={"kind": "gfp", "prime": 32004}))]
    path = tmp_path / "bad.json"
    for text in cases:
        path.write_text(text)
        code, out, err = run(capsys, "recheck", "--input", str(path))
        assert code == 2 and out == "", text
        assert err.startswith("error: ") and "Traceback" not in err
    assert run(capsys, "recheck")[0] == 2
    assert run(capsys, "recheck", "--input", str(tmp_path / "missing.json"))[0] == 2


# three GF(p) quadrics that GF(32003), GF(2**31 - 1) and the colon oracle
# over Q all call regular
QUADRICS = """\
9*x[1,2]*y[1,1] + 8*y[2,2]^2 + 31*x[2,2]*y[2,1] + 7*x[1,1]*y[2,2]
25*x[1,1]*y[2,1] + 45*y[1,1]*y[2,2] + 47*x[1,1]*x[2,2] + 21*x[1,1]^2
2*x[1,1]*y[2,1] + 44*x[2,2]*y[2,1] + 47*x[1,1]*x[2,2] + 49*y[2,2]^2
"""


def test_primes_beyond_int64_products_are_usage_errors(capsys, tmp_path):
    path = tmp_path / "quadrics.txt"
    path.write_text(QUADRICS)
    oracle = ("oracle", "--n", "2", "--input", str(path))
    assert run(capsys, *oracle, "--prime", "2147483647")[0] == 0
    assert run(capsys, *oracle, "--method", "colon", "--field", "rat")[0] == 0
    code, out, err = run(capsys, *oracle, "--prime", "1000000000039")
    assert code == 2 and out == "" and "2**31" in err

    cert = json.loads(certificate_file(capsys, tmp_path, "--n", "2").read_text())
    cert["field"]["prime"] = 1000000000039
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "recheck", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_gb_oversized_exponent_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "power.txt"
    for text in ("x[1,1]^99999999999999999999", "x[1,1]^9223372036854775807*x[1,1]"):
        path.write_text(text + "\n")
        code, out, err = run(capsys, "gb", "--n", "2", "--input", str(path))
        assert code == 2 and out == "", text
        assert "exponent" in err and "position 7" in err


def test_gb_overlong_integer_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "long.txt"
    nines = "9" * 5000
    for text, position in [(f"x[1,1]^{nines}", 7), (f"{nines}*x[1,1]", 0)]:
        path.write_text(text + "\n")
        code, out, err = run(capsys, "gb", "--n", "2", "--input", str(path))
        assert code == 2 and out == ""
        assert "long.txt:1: integer of 5000 digits" in err
        assert f"position {position}" in err and "Traceback" not in err


def test_recheck_of_a_huge_claimed_n_fails_fast(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1000000, "order": "paper",
                                "field": {"kind": "gfp", "prime": 32003},
                                "steps": [], "verdict": "certified"}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "recheck", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "verdict: failed\n"


def test_recheck_stops_at_the_first_mismatched_step(capsys, tmp_path):
    # 1,342 is the walk's length at n=40, so only the steps can fail it
    path = tmp_path / "placeholders.json"
    path.write_text(json.dumps({"n": 40, "order": "paper",
                                "field": {"kind": "gfp", "prime": 32003},
                                "steps": [0] * 1342, "verdict": "certified"}))
    assert path.stat().st_size < 5000
    start = time.perf_counter()
    code, out, _ = run(capsys, "recheck", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "verdict: failed\n"
