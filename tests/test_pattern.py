import hashlib
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from xyreg.cli import main
from xyreg.fields import QQ, PrimeField
from xyreg.pattern import (GenericProduct, PatternSpec, _certified_steps, build_ring,
                           certify_pattern, column_limit, counterexample_2x2,
                           expected_effective_lead, recheck_certificate, selected_entries,
                           selected_rows)
from xyreg.poly import Polynomial, format_poly
from xyreg.ring import format_monomial


def test_build_ring():
    assert build_ring(2).nvars == 8
    assert build_ring(3).nvars == 18
    with pytest.raises(ValueError):
        build_ring(1)


def test_product_entries():
    assert format_poly(GenericProduct(2).entry(1, 1)) == "x[1,1]*y[1,1] + x[1,2]*y[2,1]"
    f22 = GenericProduct(2).entry(2, 2)
    assert sorted(format_monomial(t.monomial, f22.table) for t in f22.terms()) == [
        "x[2,1]*y[1,2]", "x[2,2]*y[2,2]"]
    for n in (2, 3, 5):
        product = GenericProduct(n)
        for i in (1, n):
            for j in (1, n):
                f = product.entry(i, j)
                assert f.num_terms == n
                assert f.is_homogeneous() and f.degree() == 2
    with pytest.raises(IndexError):
        GenericProduct(2).entry(3, 1)


def test_column_limits_and_rows():
    assert column_limit(6, 2) == 5
    assert selected_rows(6, 2) == (1, 3, 5)
    for n in range(2, 30):
        assert column_limit(n, n) == 1
    assert selected_rows(8, 3) == (1, 4)
    assert selected_rows(9, 3) == (1, 4, 7)
    with pytest.raises(ValueError):
        column_limit(4, 5)


def test_selected_entry_count():
    # each column t selects floor(n/t) rows
    for n in range(2, 51):
        spec = PatternSpec.build(n)
        assert len(spec.positions) == sum(n // t for t in range(1, n + 1))
        for t in range(1, n + 1):
            assert len(spec.rows_by_column[t - 1]) == n // t


def test_selected_and_augmented_orderings(gf):
    F2 = selected_entries(2, field=gf)
    assert [format_poly(p) for p in F2] == [
        "x[1,1]*y[1,1] + x[1,2]*y[2,1]",
        "x[2,2]*y[2,1] + x[2,1]*y[1,1]",
        "x[1,1]*y[1,2] + x[1,2]*y[2,2]",
    ]
    assert PatternSpec.build(4).positions == (
        (1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (3, 2), (1, 3), (1, 4))
    assert PatternSpec.build(2).augmented == (
        ("f", 1, 1), ("f", 2, 1), ("y", 1, 2), ("f", 1, 2))
    # the walk certifies one element per augmented item
    assert len(PatternSpec.build(4).augmented) == 15
    assert len(certify_pattern(4, field=gf).steps) == 15


def test_pattern_matrix_against_display():
    # the displayed selection matrix shows rows 1..8 of a large grid; n = 9 is
    # the smallest size whose pattern fills every displayed row
    spec9 = PatternSpec.build(9)
    sel9 = {(s, t) for t in range(1, 10) for s in spec9.rows_by_column[t - 1]}
    first8 = lambda col: tuple(s for s in range(1, 9) if (s, col) in sel9)
    assert first8(1) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert first8(2) == (1, 3, 5, 7)
    assert first8(3) == (1, 4, 7)
    assert first8(4) == (1, 5)
    # at n = 8 the same progressions appear, truncated at each column limit
    spec8 = PatternSpec.build(8)
    assert spec8.rows_by_column[0] == (1, 2, 3, 4, 5, 6, 7, 8)
    assert spec8.rows_by_column[1] == (1, 3, 5, 7)
    assert spec8.rows_by_column[2] == (1, 4)
    assert spec8.rows_by_column[3] == (1, 5)


def test_expected_effective_lead():
    assert format_monomial(expected_effective_lead(3, 1, 1), build_ring(3)) == \
        "x[1,1]*y[1,1]"
    assert format_monomial(expected_effective_lead(4, 3, 2), build_ring(4)) == \
        "x[3,4]*y[4,2]"
    for n in (2, 4, 6):
        assert format_monomial(expected_effective_lead(n, 1, n), build_ring(n)) == \
            f"x[1,{n}]*y[{n},{n}]"
    with pytest.raises(ValueError):
        expected_effective_lead(4, 2, 2)  # row 2 is not selected in column 2


def test_certify_step_counts(gf):
    assert len(certify_pattern(2, field=gf).steps) == 4
    cert4 = certify_pattern(4, field=gf)
    assert len(cert4.steps) == 15
    assert cert4.verdict == "certified"


def test_certify_all_sizes_with_lead_predictions(gf):
    for n in range(2, 9):
        cert = certify_pattern(n, field=gf)
        assert cert.verdict == "certified", cert.failure
        leads = []
        seen_y = set()
        for step in cert.steps:
            if step.kind == "TECHNICAL":
                s, t = map(int, step.label[2:-1].split(","))
                assert step.effective_lead == expected_effective_lead(n, s, t)
            else:
                assert step.label.startswith("y[")
                assert step.label not in seen_y
                seen_y.add(step.label)
            leads.append({v for v, _ in step.effective_lead})
        # effective leads pairwise coprime across the whole walk
        for i in range(len(leads)):
            for j in range(i + 1, len(leads)):
                assert not leads[i] & leads[j], (n, i, j)
        # no bare variable reappears inside a later effective lead
        bare = {step.label for step in cert.steps if step.kind == "COPRIME_EXTEND"}
        for step in cert.steps:
            if step.kind == "TECHNICAL":
                rendered = format_monomial(step.effective_lead, cert.table)
                y_factor = rendered.split("*")[1]
                assert y_factor not in bare


# sha256 of `xyreg certify --format json` for n = 2..8, 12, 16, 24, 32, 48
# and 64 over GF(32003) and for n = 3 over Q: a change to any step, check or
# rendering changes one
GOLDEN_CERTIFICATES = {
    ("--n", "2"): "d0269ba83a7d32754e3d50d74b79550b2b9ac616115b17e7ccbe34bf1cfe64c1",
    ("--n", "3"): "69ae5c3ecc6adacd344d309f1be42822dc6f6637a837de73b0f9c042b8ae3874",
    ("--n", "4"): "923fe2f4debc14769b4dd7209f4b2903627d107617a2f2a426e1c92b2eff36f2",
    ("--n", "5"): "98610722b48420e70fe26e699111e2bb38dd2f1ba20b124874519c3af293bbd4",
    ("--n", "6"): "639125c53f2adadcfeb4b1ca4b8cbd87d37f093c361814c585049b8cbc8aabd5",
    ("--n", "7"): "8c23bddb104fdd97005c4c24ce78ecf1f108735ae8bf4d57514ea081c4ab9065",
    ("--n", "8"): "be1f2dc93720e877a453e9aca15a418cde7dfb144484b0fcf959f842f8c47b42",
    ("--n", "12"): "5a573f8f1a30f39915339f41e0368ceafe3eeca27f9a71e62729883ad026d02e",
    ("--n", "16"): "9941281e9fbd38bcfa396a22916f6903ffe0513f228993f28ffec5c439cc4016",
    ("--n", "24"): "60a00c817be3a4ff34d586ef8c99412c5ab8d0249fa82f8b867d30473a5ce754",
    ("--n", "32"): "938b826731d8ba2aa6171c203d18253221e862173b1085e3d8e2a80b3a079926",
    ("--n", "48"): "57dc052968242b996103783c8dbc0aa5d94fab2017b72f3d83f7c19152990502",
    ("--n", "64"): "e6b61154643a6354dfb2e0ed59698e27d3362d5d0812d9364808b7794d69bd82",
    ("--n", "3", "--field", "rat"):
        "38cd88c7055f2b7e1bf2d25889e063bbde6128d7428af8b3bd9ae5f420efc587",
}


def test_certificate_json_matches_golden_digests(tmp_path):
    path = tmp_path / "cert.json"
    for argv, digest in GOLDEN_CERTIFICATES.items():
        assert main(["certify", *argv, "--format", "json", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, argv
        assert recheck_certificate(json.loads(path.read_bytes())) == "certified", argv


def _dense_entry(product, i, j):
    """f[i,j] built the dense way: one zero row per term, sorted and merged
    by Polynomial.from_terms."""
    table, one = product.table, product.field.one
    rows = []
    for k in range(1, product.n + 1):
        e = np.zeros(table.nvars, dtype=np.int64)
        e[table.slot("x", i, k)] += 1
        e[table.slot("y", k, j)] += 1
        rows.append((one, e))
    return Polynomial.from_terms(table, product.field, product.order, rows)


def test_sparse_entries_match_the_product_entries(gf):
    # entry copies the terms, built in descending paper order, with no sort
    for field in (gf, QQ):
        for n in (2, 3, 5, 8):
            product = GenericProduct(n, field=field)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert product.entry(i, j) == _dense_entry(product, i, j), (n, i, j)


def test_the_walk_keeps_no_step_it_has_yielded(gf):
    # the walk keeps the effective leads, not the steps: once the caller
    # drops a step, nothing holds it
    refs = []
    for step in _certified_steps(GenericProduct(6, gf)):
        refs.append(weakref.ref(step))
        assert all(ref() is None for ref in refs[:-1]), len(refs)
    del step
    assert len(refs) == len(PatternSpec.build(6).augmented)
    assert refs[-1]() is None


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_certify_n64_peak_memory():
    # A fresh interpreter reports its own peak.  Its VmHWM, not its
    # ru_maxrss: Linux carries a spawning process's peak RSS into the
    # ru_maxrss of the child, so that would read this test process's peak.
    code = ("from xyreg.pattern import certify_pattern; "
            "certify_pattern(64).to_json_dict(); "
            "print(next(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    peak_mb = int(out.stdout) / 1024  # VmHWM is in kB
    assert peak_mb < 300, f"certify n=64 peaked at {peak_mb:.0f} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_gen_n64_peak_memory(tmp_path):
    # gen renders each entry from its terms and builds no dense row; the
    # dense, cached builder peaked at about 1.2 GB
    code = ("import sys; from xyreg.cli import main; "
            "main(['gen', '--n', '64', '--format', 'json', '--out', sys.argv[1]]); "
            "print(next(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "gen.json")], env=env,
                         capture_output=True, text=True, check=True)
    peak_mb = int(out.stdout) / 1024  # VmHWM is in kB
    assert peak_mb < 150, f"gen n=64 peaked at {peak_mb:.0f} MB"


def test_counterexample(gf):
    report = counterexample_2x2()
    assert report.passed and report.residue == "0"
    assert len(report.checks) == 6
    # the identity has integer coefficients: it reduces modulo any prime
    for p in (2, 3, 32003):
        assert counterexample_2x2(field=PrimeField(p)).passed
