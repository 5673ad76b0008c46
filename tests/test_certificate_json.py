"""The streamed certificate is byte for byte what the dict tree gave.

``reference_json_dict`` is the dict builder that the text renderer
(``RegularityCertificate.step_json``/``json_lines``) replaced, kept here as
the reference: ``json.dumps(reference_json_dict(cert), indent=2) + "\\n"``
must equal what ``xyreg certify --format json`` writes, to ``--out`` and to
stdout, on every path the walk can take, and on steps the walk never makes
(subtractions with coefficients, a false check, an empty check list, a null
``strict_form``, strings that need escaping).
"""

import json
from fractions import Fraction
from itertools import count

import pytest

import xyreg.pattern as pattern
from xyreg.cli import main
from xyreg.errors import CertificationError
from xyreg.fields import QQ, PrimeField
from xyreg.orders import MonomialOrder
from xyreg.pattern import build_ring, certify_pattern
from xyreg.poly import Term, _format_terms
from xyreg.regseq import (CertificateStep, RegularityCertificate, SparsePolynomial,
                          _format_term)
from xyreg.ring import _format_support

FIELDS = {"gfp": PrimeField(32003), "rat": QQ}


def reference_step(cert, s):
    table = cert.table
    lead = _format_support(s.effective_lead, table)
    return {
        "kind": s.kind,
        "label": s.label,
        "role": s.role,
        "element": _format_terms(s.element.field, s.element.terms, table),
        "effective_lead": lead,
        "subtractions": [[_format_support(m, table), _format_term(t, table)]
                         for m, t in s.subtractions],
        "m_next": lead if s.kind == "TECHNICAL" else None,
        "checks": dict(s.checks),
        "strict_form": s.strict_form,
    }


def reference_json_dict(cert):
    out = {
        "n": cert.n,
        "order": cert.order_name,
        "field": dict(cert.field_spec),
        "steps": [reference_step(cert, s) for s in cert.steps],
        "verdict": cert.verdict,
    }
    if cert.failure is not None:
        out["failure"] = dict(cert.failure)
    if cert.note:
        out["note"] = cert.note
    return out


def reference_text(cert):
    return json.dumps(reference_json_dict(cert), indent=2) + "\n"


def certify_outputs(capsys, tmp_path, n, field):
    """(exit code, --out bytes, stdout bytes) of ``certify --format json``."""
    path = tmp_path / "cert.json"
    argv = ["certify", "--n", str(n), "--field", field, "--format", "json"]
    code = main(argv + ["--out", str(path)])
    assert capsys.readouterr().out == ""
    assert main(argv) == code
    return code, path.read_bytes(), capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_certify_bytes_equal_the_dict_tree(capsys, tmp_path, field):
    for n in range(2, 17):
        expected = reference_text(certify_pattern(n, FIELDS[field])).encode("utf-8")
        assert certify_outputs(capsys, tmp_path, n, field) == (0, expected, expected), n


@pytest.mark.parametrize("label", ["f[1,1]", "f[3,2]"])
def test_a_walk_failing_at_a_technical_step_matches(capsys, tmp_path, monkeypatch, label):
    # f[1,1] fails at step 1, so the certificate has no steps at all
    predicted = pattern.expected_effective_lead

    def mispredicted(n, s, t):
        lead = predicted(n, s, t)
        return lead[::-1] if f"f[{s},{t}]" == label else lead

    monkeypatch.setattr(pattern, "expected_effective_lead", mispredicted)
    cert = certify_pattern(4, FIELDS["rat"])
    assert cert.failure["condition"] == "lead_prediction"
    assert label in cert.failure["message"] and bool(cert.steps) == (label != "f[1,1]")
    expected = reference_text(cert).encode("utf-8")
    assert certify_outputs(capsys, tmp_path, 4, "rat") == (1, expected, expected)


def test_a_walk_failing_at_a_coprime_extend_step_matches(capsys, tmp_path, monkeypatch):
    extend = pattern.coprime_extend_element

    def clashing(prior, p, *, role, label):
        if label == "y[2,3]":
            raise CertificationError("lead_coprime_to_prior",
                                     'lead "y[2,3]" clashes — forced\n')
        return extend(prior, p, role=role, label=label)

    monkeypatch.setattr(pattern, "coprime_extend_element", clashing)
    cert = certify_pattern(4)
    assert cert.failure["condition"] == "lead_coprime_to_prior"
    expected = reference_text(cert).encode("utf-8")
    assert b'"failure": {' in expected and b"\\u2014" in expected
    assert certify_outputs(capsys, tmp_path, 4, "gfp") == (1, expected, expected)


def test_hand_built_steps_match():
    table = build_ring(2)
    order = MonomialOrder.from_name("paper", 2)
    element = SparsePolynomial(table, QQ, order, (
        (Fraction(-1, 2), ((0, 1), (4, 1))), (Fraction(3), ((1, 2),)), (QQ.one, ())))
    technical = CertificateStep(
        kind="TECHNICAL", label='f"q\\é', element=element,
        effective_lead=((0, 1), (4, 1)), role="technical",
        subtractions=((((6, 1),), Term(Fraction(-1, 2), ((0, 1),))),
                      (((7, 1),), Term(1, ((1, 1),))),
                      (((5, 3),), Term(5, ()))),
        checks={"residue_lead_unit": True, "tail_below_residue_lead": False},
        strict_form=None)
    bare = CertificateStep(kind="COPRIME_EXTEND", label="y[1,2]",
                           element=SparsePolynomial(table, QQ, order, ((QQ.one, ((6, 1),)),)),
                           effective_lead=((6, 1),), role="bare-monomial", checks={},
                           strict_form=False)
    for steps in ([technical], [bare, technical, bare], []):
        cert = RegularityCertificate(
            n=2, order_name="paper", field_spec={"kind": "rat"}, table=table, steps=steps,
            verdict="failed", failure={"step": len(steps) + 1, "condition": "x",
                                       "message": "tab\there"})
        assert "\n".join(cert.json_lines()) + "\n" == reference_text(cert)
        assert cert.to_json_dict() == reference_json_dict(cert)
        for s in steps:
            assert json.loads(cert.step_json(s)) == reference_step(cert, s)
            assert cert.step_matches(reference_step(cert, s), s)


def test_a_step_matches_its_value_as_canonical_json():
    cert = certify_pattern(3)
    step = cert.steps[0]
    value = reference_step(cert, step)
    assert cert.step_matches(value, step)
    # keys in another order are the same step (the text comparison misses it)
    assert cert.step_matches(dict(reversed(value.items())), step)
    # a number for a boolean, or any changed value, is not
    assert value["checks"]["residue_lead_unit"] == 1
    assert not cert.step_matches(dict(value, checks=dict(value["checks"], residue_lead_unit=1)),
                                 step)
    assert not cert.step_matches(dict(value, m_next=None), step)
    assert not cert.step_matches(dict(value, label=value["label"] + " "), step)


def test_running_out_of_memory_while_rendering_leaves_no_file(capsys, tmp_path,
                                                              monkeypatch):
    render = RegularityCertificate.step_json
    calls = count()

    def exhausted(self, s):
        if next(calls) == 5:
            raise MemoryError
        return render(self, s)

    monkeypatch.setattr(RegularityCertificate, "step_json", exhausted)
    path = tmp_path / "cert.json"
    assert main(["certify", "--n", "4", "--format", "json", "--out", str(path)]) == 3
    assert capsys.readouterr() == ("", "inconclusive: out of memory\n")
    assert next(calls) == 6 and not path.exists()
