import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction
from importlib import resources

import pytest

import p3dist
from p3dist import cli, corpus, distribution, foliation, groebner, linalg
from p3dist.errors import (
    InconsistentInvariants,
    ParseError,
    ValidationError,
    WeightRelationViolated,
)
from p3dist.exterior import ExtForm, VField
from p3dist.grammar import format_poly, parse_poly
from p3dist.logarithmic import LogType

import maxorder

CORPUS_SHA256 = "8fd4bef70dcefcb81306acea0c90f9dac9e0b2bd43962b067b25b8c51c35ecd6"


def corpus_text():
    return (
        resources.files("p3dist.data").joinpath("corpus.json").read_text()
    )


def test_corpus_checksum_pinned():
    digest = hashlib.sha256(corpus_text().encode()).hexdigest()
    assert digest == CORPUS_SHA256


# sha256 of the stdout report of every corpus document: `analyze` for the
# 1-forms, `analyze-vf` for the fields and `log-audit` for the log types
REPORT_SHA256 = {
    "example1": "5a70bc671b07dc35d596917ac8d41b33b6d8a2d3dae37f389c02bd9b56d54c71",
    "example2": "bf0e50645a0dec4312df8883572537c1e3f9301f476b384b9a9af6ad5149e462",
    "nullcorrelation": "f470574c7aaf0ab7a24db24eeb02daf52052ceb24489e0ad6ed862b0ef2aced7",
    "pencil_of_planes": "c1c7792b96f6eb889a92553a85f9de5d091830cb309ade8178420c550743f17a",
    "double_line": "5e1f6bec1318bee40725c3700f444b890810e298f7a64b9800316acfd0688219",
    "four_points": "b72ebc914b8cd2fbc8915524137ad8e2b7f2f96571e110e8a89d50176244697b",
    "line_plus_points": "e7f2414683ea459c9ff1452647132c4e7a81ec50f07096d878a27498ba992bc4",
    "planes_and_quadric": "18f81c726b1df8054fec30aba83151a5e73a80a3941ea874544e27ed49d0ac3a",
    "quadric_pencil": "70c3d71ce8f3536368f6b8cbc006671aef88afa683c5dcabb79c417847ec0d63",
    "quadric_pencil_tangent": "bced0238531edde7e12786c51624f073bd313efc66d71349e46e22c5af4777b7",
}


def test_corpus_reports_pinned(tmp_path, capsys):
    raw = json.loads(corpus_text())
    commands = (
        ("oneforms", "analyze", lambda e: {"kind": "oneform", "coeffs": e["coeffs"]}),
        ("vfields", "analyze-vf", lambda e: {"kind": "vfield", "components": e["components"]}),
        ("logtypes", "log-audit",
         lambda e: {"kind": "logtype", "polys": e["polys"], "lambdas": e["weights"]}),
    )
    digests = {}
    for kind, command, doc in commands:
        for name, entry in raw[kind].items():
            assert cli.main([command, write_doc(tmp_path, doc(entry))]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == REPORT_SHA256


# sha256 of the stdout of `find-subfoliation` on the corpus 1-forms and of
# `log-build` on the corpus log types
BUILD_REPORT_SHA256 = {
    "example1": "2256564df739e855ae2d2ae1d5386791dfe8941e903576bb3b9cd23af21029da",
    "example2": "2631c9f83cf299987229b7f93784b759b4e2b7f1c9d53ac3cb9f3b91c234c3a7",
    "nullcorrelation": "99e15e20b2bbea3b66526f45b2d8c498d227336c6e670a2be635d7c46d6078bd",
    "pencil_of_planes": "34c25a8a4317fa01b565296d00dff7c4efd7c5b52c38711479375aa0c3b05f53",
    "planes_and_quadric": "c00c9b3863a605f3bacafc5586ea39870de729b8321516a543313515cafbf2be",
    "quadric_pencil": "d25f01aa786b435008844811734774ad2b7fb2fc43d725d4403662ade92a85b5",
    "quadric_pencil_tangent": "102b23d3a44dc2007136a1e06fa3fe1cfcdda005d43a2551ac0f75e975790456",
}


def test_subfoliation_and_log_build_reports_pinned(tmp_path, capsys):
    raw = json.loads(corpus_text())
    commands = (
        ("oneforms", "find-subfoliation", lambda e: {"kind": "oneform", "coeffs": e["coeffs"]}),
        ("logtypes", "log-build",
         lambda e: {"kind": "logtype", "polys": e["polys"], "lambdas": e["weights"]}),
    )
    digests = {}
    for kind, command, doc in commands:
        for name, entry in raw[kind].items():
            assert cli.main([command, write_doc(tmp_path, doc(entry))]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == BUILD_REPORT_SHA256


# sha256 of the stdout of `analyze --mod-p 32003` on the corpus 1-forms and
# of `analyze-vf --mod-p 7` on the corpus fields (the Groebner engine over
# GF(p)), and of the stderr of `analyze` on a form whose coefficients share
# the factor x2 + x3 (the block-order elimination behind `common_factor`)
MOD_P_REPORT_SHA256 = {
    "example1": "7ac6669d0bcc83e678decaa9cb55fa0ef29cc41644ee430baa8349327c2887a7",
    "example2": "45dcc0c4efc2dfc9f44420c77c99a46bda9b205eb963cca7078af1b102962297",
    "nullcorrelation": "6ea8f5564edbe3da24e34008a20db608af6db8e39d554b5883e2ea6b2fd6ce75",
    "pencil_of_planes": "25ba78103dffe54eb8e90a1c59772982582cf3628f81fc88b0a5539096963b80",
    "four_points": "80bf5ffb2763bcfeaad6c35300fe9c151b5bd7b7a13bcfed9881a0b5973d74cf",
    "line_plus_points": "d0b0ee25218e1a4e6642c13624137d4a5ca7790271a705a2475ae51a9314caa0",
    "double_line": "2245bd80f57d4fbea9dd1960cd401cf86b4cd45f2d11a88cdaf9607bdf07810c",
}
COMMON_FACTOR_STDERR_SHA256 = "003d506e0577111f09fd599e189d1433f7718c213b49ffd1c1625362d3c0f37a"


def test_corpus_mod_p_reports_pinned(tmp_path, capsys):
    raw = json.loads(corpus_text())
    commands = (
        ("oneforms", ["analyze", "--mod-p", "32003"],
         lambda e: {"kind": "oneform", "coeffs": e["coeffs"]}),
        ("vfields", ["analyze-vf", "--mod-p", "7"],
         lambda e: {"kind": "vfield", "components": e["components"]}),
    )
    digests = {}
    for kind, argv, doc in commands:
        for name, entry in raw[kind].items():
            assert cli.main(argv + [write_doc(tmp_path, doc(entry))]) == 0
            out = capsys.readouterr().out
            assert '"mod_p_check"' in out
            digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == MOD_P_REPORT_SHA256
    shared = {"kind": "oneform", "coeffs": ["x1*x2 + x1*x3", "-x0*x2 - x0*x3", "0", "0"]}
    assert cli.main(["analyze", write_doc(tmp_path, shared)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode()).hexdigest() == COMMON_FACTOR_STDERR_SHA256


def write_doc(tmp_path, doc):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(doc))
    return str(p)


def oneform_doc(name):
    raw = json.loads(corpus_text())
    return {"kind": "oneform", "coeffs": raw["oneforms"][name]["coeffs"]}


def test_parse_input_kinds():
    assert isinstance(
        cli.parse_input('{"kind":"oneform","coeffs":["x1","-x0","x3","-x2"]}'),
        ExtForm,
    )
    assert isinstance(
        cli.parse_input('{"kind":"vfield","components":["x0","2x1","3x2","4x3"]}'),
        VField,
    )
    assert isinstance(
        cli.parse_input(
            '{"kind":"logtype","polys":["x","y"],"lambdas":["1","-1"]}'
        ),
        LogType,
    )


def test_parse_input_errors():
    with pytest.raises(ParseError):
        cli.parse_input("not json")
    with pytest.raises(ParseError):
        cli.parse_input('{"kind":"nope"}')
    with pytest.raises(ParseError):
        cli.parse_input('{"kind":"oneform","coeffs":["x0"]}')
    with pytest.raises(ParseError) as exc:
        cli.parse_input('{"kind":"oneform","coeffs":["x0 + * x1","0","0","0"]}')
    assert exc.value.col == 6


def test_vfield_length_error_names_the_key_used():
    for key in ("components", "coeffs"):
        for entries in (["x0", "x1", "x2"], "x0"):
            with pytest.raises(ParseError) as exc:
                cli.parse_input(json.dumps({"kind": "vfield", key: entries}))
            assert str(exc.value).startswith(f"'{key}' must be a list of 4 polynomial strings")


def test_parse_input_rejects_non_string_entries(tmp_path, capsys):
    for doc in (
        {"kind": "vfield", "components": [1, 2, 3, 4]},
        {"kind": "oneform", "coeffs": ["x1", "-x0", None, "-x2"]},
        {"kind": "logtype", "polys": ["x0", ["x1"]], "lambdas": ["1", "-1"]},
    ):
        with pytest.raises(ParseError):
            cli.parse_input(json.dumps(doc))
    path = write_doc(tmp_path, {"kind": "vfield", "components": [1, 2, 3, 4]})
    assert cli.main(["analyze-vf", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"] == ("components[0]: polynomial entries must be strings, got 1 "
                              "(line 1, col 1)")


def test_analyze_command(tmp_path, capsys):
    path = write_doc(tmp_path, oneform_doc("example1"))
    assert cli.main(["analyze", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 3
    assert doc["stability"]["family"] == 1
    assert doc["tF"] == 1
    assert doc["schema_version"] == 1


def test_analyze_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, oneform_doc("example2"))
    assert cli.main(["analyze", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["analyze", path]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_analyze_mod_p(tmp_path, capsys):
    path = write_doc(tmp_path, oneform_doc("example1"))
    assert cli.main(["analyze", path, "--mod-p", "32003"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mod_p_check"]["agrees"] is True


@pytest.mark.parametrize("prime", ["4", "9", "1", "-7", str(2 ** 31 + 11)])
def test_mod_p_must_be_a_prime(tmp_path, capsys, prime):
    # composites, units and negatives would run the check over a ring that
    # is not a field, or end in a traceback from a modular inverse
    path = write_doc(tmp_path, oneform_doc("example1"))
    assert cli.main(["analyze", path, "--mod-p", prime]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "--mod-p" in err["message"] and prime in err["message"]


def test_mod_p_accepts_small_and_word_size_primes(tmp_path, capsys):
    path = write_doc(tmp_path, {"kind": "vfield", "components": ["x0", "2x1", "3x2", "4x3"]})
    for prime in (2, 2 ** 31 - 1):
        assert cli.main(["analyze-vf", path, "--mod-p", str(prime)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mod_p_check"]["prime"] == prime


def test_mod_p_rotation_on_bad_prime():
    # a prime dividing a generator coefficient forces a rotation
    from fractions import Fraction

    from p3dist.groebner import Ideal
    from p3dist.poly import Poly, X0, X1

    I = Ideal((X0 + Poly.constant(Fraction(1, 32003)) * X1,))
    result = cli.mod_p_check(I, 32003)
    assert result["agrees"] is True
    assert result["rotations"] >= 1
    assert result["prime"] != 32003


def test_mod_p_check_reads_the_reduced_basis():
    # only denominators of the reduced basis make a prime rotate, and when
    # every prime divides one nothing was compared: "agrees" is null
    from p3dist.groebner import Ideal
    from p3dist.poly import Poly, X0, X1

    every = Poly.constant(Fraction(1, 32003 * 31991 * 31981 * 31973 * 31963))
    assert cli.mod_p_check(Ideal((every * X0 + X1,)), 32003) == {
        "prime": 32003, "agrees": True, "rotations": 0}
    assert cli.mod_p_check(Ideal((X0 + every * X1,)), 32003) == {
        "prime": 31963, "agrees": None, "rotations": 5}


def test_mod_p_check_builds_no_poly(monkeypatch):
    # the check reads the saturation's reduced basis as the engine's
    # primitive integer rows; mod p they give the leading terms that the
    # monic Polys of that basis give, and fail exactly when these do
    from p3dist import foliation
    from p3dist.groebner import Ideal, leading_monomials_mod_p
    from p3dist.poly import Poly

    names = corpus.corpus_names()
    sats = [distribution.singular_scheme(corpus.load_oneform(n)) for n in names["oneforms"]]
    sats += [foliation.sing_scheme_v(corpus.load_vfield(n)) for n in names["vfields"]]
    init = Poly.__init__
    for sat in sats:
        built = []
        monkeypatch.setattr(Poly, "__init__", lambda self, terms=None: built.append(terms))
        assert cli.mod_p_check(sat, 32003)["agrees"] is True
        assert built == []
        monkeypatch.setattr(Poly, "__init__", init)
        monic = Ideal(sat.groebner())
        for p in (2, 3, 5, 7, 32003):
            try:
                expected = leading_monomials_mod_p(monic, p)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    leading_monomials_mod_p(sat, p)
            else:
                assert leading_monomials_mod_p(sat, p) == expected


def test_mod_p_disagreement_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # the reduced monic basis keeps its leading terms mod any prime that
    # divides none of its denominators, so a disagreement is an engine
    # fault: trying the next prime must not hide it
    real = cli.leading_monomials_mod_p

    def wrong_at_first_prime(ideal, prime):
        return () if prime == 32003 else real(ideal, prime)

    monkeypatch.setattr(cli, "leading_monomials_mod_p", wrong_at_first_prime)
    path = write_doc(tmp_path, oneform_doc("example1"))
    assert cli.main(["analyze", path, "--mod-p", "32003"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "NumericContradiction"
    assert "mod 32003" in err["message"]


def no_section(omega, dprime):
    return None


def no_h0(numerator, d, dprime):
    return linalg.SectionSpaceDim(dprime, 0, 0, 0)


def unclassified_invariants(v):
    sing = distribution.SingInvariants(0, 0, 0, None)
    return sing, distribution.ChernTriple(-4, 0, 0)


# the internal-error branches no valid input reaches, each forced: positive
# h0 with no section, no twist with h0 > 0 up to d + 1, and a degree-1
# field that fits none of the three cases
@pytest.mark.parametrize("command, doc, module, name, fake, error", [
    pytest.param("find-subfoliation", oneform_doc("example1"), linalg, "minimal_section",
                 no_section, "BoundViolated", id="no-section"),
    pytest.param("find-subfoliation", oneform_doc("example1"), linalg, "_dims",
                 no_h0, "BoundViolated", id="no-h0"),
    pytest.param("analyze-vf", {"kind": "vfield", "components": ["x0", "2x1", "3x2", "4x3"]},
                 foliation, "conormal_invariants", unclassified_invariants,
                 "UnclassifiedDegree1", id="unclassified"),
])
def test_internal_errors_exit_2(tmp_path, capsys, monkeypatch, command, doc, module, name,
                                fake, error):
    monkeypatch.setattr(module, name, fake)
    assert cli.main([command, write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


def test_analyze_vf_command(tmp_path, capsys):
    path = write_doc(
        tmp_path, {"kind": "vfield", "components": ["x0", "2x1", "3x2", "4x3"]}
    )
    assert cli.main(["analyze-vf", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree1_case"] == "stable-points"
    assert doc["chern"] == {"c1": -4, "c2": 6, "c3": 4}


def test_find_subfoliation(tmp_path, capsys):
    path = write_doc(tmp_path, oneform_doc("example1"))
    assert cli.main(["find-subfoliation", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tF"] == 1
    assert doc["h0_at_tF"] == 1
    assert doc["in_distribution"] is True


def test_find_subfoliation_saturates_nothing(tmp_path, capsys, monkeypatch):
    # find-subfoliation prints no ideal: it runs no saturation, and
    # compute_tF reads the Hilbert data of the coefficient ideal with no
    # capped Buchberger run; analyze saturates once, for its sat_ideal. The
    # line-row form needs a k >= 1 elimination, a run seeded with a basis
    calls = []
    for module in (distribution, foliation):
        monkeypatch.setattr(module, "saturate",
                            lambda I, real=module.saturate: calls.append("saturate") or real(I))
    engine = groebner._buchberger_terms

    def recording_engine(gens, p=None, done=(), cap=None, bound=None):
        calls.extend(["capped"] * (cap is not None) + ["seeded"] * bool(done))
        return engine(gens, p, done, cap, bound)

    monkeypatch.setattr(groebner, "_buchberger_terms", recording_engine)
    docs = [oneform_doc(name) for name in corpus.corpus_names()["oneforms"]]
    docs.append({"kind": "oneform", "coeffs": [
        format_poly(a) for a in maxorder.oneform("line", 5, 1).one_form_coeffs()]})
    for doc in docs:
        path = write_doc(tmp_path, doc)
        assert cli.main(["find-subfoliation", path]) == 0
        assert calls == []
        assert cli.main(["analyze", path]) == 0
        assert calls.count("saturate") == 1 and "capped" not in calls
        capsys.readouterr()
        eliminated = "seeded" in calls
        calls.clear()
    assert eliminated  # on the line-row form, the last one


def test_log_build_pipes_into_analyze(tmp_path, capsys):
    raw = json.loads(corpus_text())["logtypes"]["quadric_pencil"]
    path = write_doc(
        tmp_path,
        {"kind": "logtype", "polys": raw["polys"], "lambdas": raw["weights"]},
    )
    assert cli.main(["log-build", path]) == 0
    built = capsys.readouterr().out
    omega = cli.parse_input(built)
    assert distribution.validate_oneform(omega)[0] == 2


def test_log_audit_command(tmp_path, capsys):
    raw = json.loads(corpus_text())["logtypes"]["quadric_pencil"]
    path = write_doc(
        tmp_path,
        {"kind": "logtype", "polys": raw["polys"], "lambdas": raw["weights"]},
    )
    assert cli.main(["log-audit", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["non_generic"] is False
    assert doc["actual"] == {"degC": 4, "lenU": 4}


WRONG_KIND_DOCS = {
    "oneform": {"kind": "oneform", "coeffs": ["x1", "-x0", "x3", "-x2"]},
    "vfield": {"kind": "vfield", "components": ["x0", "2x1", "3x2", "4x3"]},
    "logtype": {"kind": "logtype", "polys": ["x0", "x1"], "lambdas": ["1", "-1"]},
}


@pytest.mark.parametrize("command, kind, given", [
    ("analyze", "oneform", "vfield"),
    ("analyze-vf", "vfield", "logtype"),
    ("find-subfoliation", "oneform", "logtype"),
    ("log-build", "logtype", "oneform"),
    ("log-audit", "logtype", "vfield"),
])
def test_file_command_rejects_other_kind(tmp_path, capsys, command, kind, given):
    path = write_doc(tmp_path, WRONG_KIND_DOCS[given])
    assert cli.main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"{command} expects a '{kind}' input document")


def test_analyze_zero_x0_coefficient(tmp_path, capsys):
    path = write_doc(tmp_path, {"kind": "oneform", "coeffs": ["0", "x2", "-x1", "0"]})
    assert cli.main(["analyze", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tF"] == 0
    assert doc["degree"] == 0


def test_log_audit_without_x0(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        {"kind": "logtype", "polys": ["x1", "7*x1 - 3*x3"], "lambdas": ["1", "-1"]},
    )
    assert cli.main(["log-audit", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "log-audit"
    assert doc["distribution"]["tF"] == 0


def test_table1_command(capsys):
    assert cli.main(["table1", "--dmax", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][4]["cells"] == ["O(1)⊕O(-3)", "O⊕O(-2)", "O(-1)⊕O(-1)"]
    assert doc["rows"][3]["cells"] == ["O(1)⊕O(-2)", "O⊕O(-1)", "×"]


def test_table1_command_rejects_dmax_past_cap(capsys):
    # past the cap the table is refused before any cell is built
    start = time.perf_counter()
    assert cli.main(["table1", "--dmax", "1000000"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert "TABLE1_DMAX" in err["message"]


def test_validation_error_exit_code(tmp_path, capsys):
    path = write_doc(
        tmp_path, {"kind": "oneform", "coeffs": ["x0*x1", "-x0^2", "0", "0"]}
    )
    assert cli.main(["analyze", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DivisorialSingularity"


def test_analyze_vf_common_factor_exit_code(tmp_path, capsys):
    # x1 * (x0, x1, x2, x3 + x0): radially dependent on the surface x0*x1 = 0;
    # then factors that are not monomials, named from the coefficients or
    # the saturated basis: g = x0 + 2*x1 - x3 times x1 dx0 - x0 dx1, and
    # times the line-row form of degree 4 and the field (x0, 3x1, 5x2, 7x3);
    # and (x0 - x2) * (x0, 2x1, 3x2, 4x3)
    g = parse_poly("x0 + 2*x1 - x3")
    oneform = {"kind": "oneform",
               "coeffs": ["x0*x1+2*x1^2-x1*x3", "-x0^2-2*x0*x1+x0*x3", "0", "0"]}
    line_form = {"kind": "oneform", "coeffs": [
        format_poly(g * a) for a in maxorder.oneform("line", 4, 1).one_form_coeffs()]}
    g_field = {"kind": "vfield", "components": [
        format_poly(g * parse_poly(c)) for c in ("x0", "3x1", "5x2", "7x3")]}
    vfield = {"kind": "vfield", "components": ["x0^2-x0*x2", "2*x0*x1-2*x1*x2",
                                               "3*x0*x2-3*x2^2", "4*x0*x3-4*x2*x3"]}
    for command, doc, factor in (
        ("analyze-vf", {"kind": "vfield",
                        "components": ["x0*x1", "x1^2", "x1*x2", "x1*x3+x0*x1"]}, "x0*x1"),
        ("analyze", oneform, "x0 + 2*x1 - x3"),
        ("find-subfoliation", oneform, "x0 + 2*x1 - x3"),
        ("analyze", line_form, "x0 + 2*x1 - x3"),
        ("find-subfoliation", line_form, "x0 + 2*x1 - x3"),
        ("analyze-vf", g_field, "x0 + 2*x1 - x3"),
        ("analyze-vf", vfield, "x0 - x2"),
    ):
        assert cli.main([command, write_doc(tmp_path, doc)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "DivisorialSingularity",
            "message": f"coefficients share the factor {factor}",
        }


def test_mistyped_variable_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, {"kind": "oneform", "coeffs": ["x1", "-x5", "0", "0"]})
    assert cli.main(["analyze", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert (err["line"], err["col"]) == (1, 3)


def test_input_limit_exit_code(tmp_path, capsys):
    # a power above the degree cap and parentheses nested past the depth
    # limit end in the JSON error, not in a long run or a traceback
    for coeff, limit in (
        ("(x0+x1+x2+x3)^40", "MAX_DEGREE"),
        ("(" * 400 + "x1" + ")" * 400, "MAX_DEPTH"),
    ):
        path = write_doc(tmp_path, {"kind": "oneform", "coeffs": [coeff, "-x0", "0", "0"]})
        assert cli.main(["analyze", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert limit in err["message"]


def test_parse_error_exit_code(tmp_path, capsys):
    path = write_doc(
        tmp_path, {"kind": "oneform", "coeffs": ["x0 + * x1", "0", "0", "0"]}
    )
    assert cli.main(["analyze", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["col"] == 6


@pytest.mark.parametrize("doc, key, index, line, col", [
    # the position is within the entry as written, surrounding space included
    ({"kind": "oneform", "coeffs": ["x1", "-x0", "x3", "  -x2 + x5"]}, "coeffs", 3, 1, 10),
    ({"kind": "oneform", "coeffs": ["x1", "-x0", "x3", "  -x2 +\n x5"]}, "coeffs", 3, 2, 3),
    ({"kind": "oneform", "coeffs": ["x1", "   ", "x3", "-x2"]}, "coeffs", 1, 1, 4),
    ({"kind": "vfield", "components": ["x1 +", "x0", "x3", "x2"]}, "components", 0, 1, 5),
    ({"kind": "vfield", "coeffs": ["x1", "x0", "x3 x5", "x2"]}, "coeffs", 2, 1, 5),
    ({"kind": "logtype", "polys": ["x0", "x1 + (x2", "x3"], "lambdas": ["1", "-1", "0"]},
     "polys", 1, 1, 9),
])
def test_parse_error_names_the_entry(tmp_path, capsys, doc, key, index, line, col):
    with pytest.raises(ParseError) as own:
        parse_poly(doc[key][index])
    command = {"oneform": "analyze", "vfield": "analyze-vf", "logtype": "log-audit"}
    path = write_doc(tmp_path, doc)
    assert cli.main([command[doc["kind"]], path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParseError", "message": f"{key}[{index}]: {own.value}",
                   "line": line, "col": col}
    with pytest.raises(ParseError) as exc:
        cli.parse_input(json.dumps(doc))
    assert exc.value.expected == own.value.expected


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def boom(_):
        raise InconsistentInvariants("forced for the exit-code test")

    monkeypatch.setattr(distribution, "classify", boom)
    path = write_doc(tmp_path, oneform_doc("nullcorrelation"))
    assert cli.main(["analyze", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InconsistentInvariants"


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO('{"kind":"oneform","coeffs":["x1","-x0","x3","-x2"]}'),
    )
    assert cli.main(["analyze", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regular"] is True


def test_unreadable_input_is_a_validation_error(tmp_path, capsys, monkeypatch):
    # a missing file, a directory, bytes that are not UTF-8 in a file and on
    # a strict stdin: each ends in the one-line JSON error, not a traceback
    import io

    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    missing = str(tmp_path / "missing.json")
    for path, stdin, reason in (
        (missing, None, "No such file or directory"),
        (str(tmp_path), None, "Is a directory"),
        (str(undecodable), None, "can't decode byte 0xff"),
        ("-", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="strict"),
         "can't decode byte 0xff"),
    ):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", stdin)
        assert cli.main(["analyze", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "ValidationError"
        assert doc["message"].startswith(f"cannot read {'stdin' if path == '-' else path}: ")
        assert reason in doc["message"]


def test_verify_paper_examples(capsys):
    assert cli.main(["verify-paper-examples"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is True


# sha256 of the stdout of the two commands that read no input document;
# verify-paper-examples reads the corpus through `parse_input`
COMMAND_SHA256 = {
    ("verify-paper-examples",):
        "254bbe4ccd960c1040265a9f18b275b140f7c91c0e9e99a66c62feb9befaeed5",
    ("table1", "--dmax", "6"):
        "03073d55b5abcabc1cabcad63b3079211428705bff1f79d1751938b22fb9aa14",
}


@pytest.mark.parametrize("argv", sorted(COMMAND_SHA256))
def test_command_reports_pinned(argv, capsys):
    assert cli.main(list(argv)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == COMMAND_SHA256[argv]


@pytest.mark.parametrize("argv", [["verify-paper-examples"], ["analyze", "-"]])
def test_closed_stdout_keeps_the_exit_code(argv):
    # the read end of stdout is closed before the command writes; Python
    # ignores SIGPIPE, so the write raises BrokenPipeError every time
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(p3dist.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "p3dist.cli", *argv],
            input=b'{"kind":"oneform","coeffs":["x1","-x0","x3","-x2"]}',
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("weight", ["1e5000", "1e-3"])
def test_exponent_weights_rejected(tmp_path, capsys, weight):
    # Fraction would build 10**5000 in full, and formatting the weight
    # relation's message would then pass the interpreter's digit limit
    path = write_doc(
        tmp_path, {"kind": "logtype", "polys": ["x0", "x1"], "lambdas": [weight, "1"]}
    )
    assert cli.main(["log-audit", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "exponent" in err["message"]


def test_parse_input_json_limits():
    # an integer literal past the digit limit (where the interpreter has
    # one) and nesting past the recursion limit end in a validation error,
    # not in ValueError or RecursionError
    for text in (
        '{"kind":"logtype","polys":["x0","x1"],"lambdas":[' + "1" * 5000 + ",1]}",
        "[" * 100000 + "]" * 100000,
    ):
        with pytest.raises(ValidationError):
            cli.parse_input(text)


# 4000-digit weights parse, but their sum has over 4300 digits: the weight
# relation's message must not spell it out
HUGE_WEIGHTS = {"kind": "logtype", "polys": ["x0", "x1"],
                "lambdas": ["1/" + "7" * 4000, "-1/1" + "0" * 3998 + "1"]}
HUGE_SUM_MESSAGE = "sum of weight*degree is a fraction of over 1000 digits, expected 0"


def test_parse_input_huge_weight_relation():
    with pytest.raises(WeightRelationViolated) as exc:
        cli.parse_input(json.dumps(HUGE_WEIGHTS))
    assert str(exc.value) == HUGE_SUM_MESSAGE
    with pytest.raises(WeightRelationViolated) as exc:
        cli.parse_input('{"kind":"logtype","polys":["x0","x1^2"],"lambdas":["1/3","1"]}')
    assert str(exc.value) == "sum of weight*degree is 7/3, expected 0"


def test_log_audit_huge_weights_exit_code(tmp_path, capsys):
    assert cli.main(["log-audit", write_doc(tmp_path, HUGE_WEIGHTS)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "WeightRelationViolated", "message": HUGE_SUM_MESSAGE}


def logtype_text(lambdas):
    """A log type document with the weights written as raw JSON."""
    return '{"kind":"logtype","polys":["x0","x1"],"lambdas":' + lambdas + "}"


def test_json_decimal_weights_read_exactly():
    # a JSON number is read from its literal, not through a binary float
    for lambdas, weights in (
        ("[0.0000001, -0.0000001]", (Fraction(1, 10 ** 7), Fraction(-1, 10 ** 7))),
        ("[12345678901234567.5, -12345678901234567.5]",
         (Fraction(24691357802469135, 2), Fraction(-24691357802469135, 2))),
        ('[0.25, "-1/4"]', (Fraction(1, 4), Fraction(-1, 4))),
    ):
        assert cli.parse_input(logtype_text(lambdas)).weights == weights
    # these weights sum to 10**-17, as numbers and as strings alike
    for lambdas in ("[1.00000000000000001, -1]", '["1.00000000000000001", "-1"]'):
        with pytest.raises(WeightRelationViolated) as exc:
            cli.parse_input(logtype_text(lambdas))
        assert str(exc.value) == ("sum of weight*degree is 1/100000000000000000, "
                                  "expected 0")


def test_json_exponent_weights_rejected():
    # exponent notation is refused in a JSON number too, whatever float it
    # would round to; a number is still no polynomial entry
    for lambdas in ("[1e5, -1e5]", "[1e5000, 1]", "[1E-3, -0.001]"):
        with pytest.raises(ParseError, match="without exponent notation"):
            cli.parse_input(logtype_text(lambdas))
    with pytest.raises(ParseError) as exc:
        cli.parse_input('{"kind":"oneform","coeffs":["x1",1.5,"x3","-x2"]}')
    assert exc.value.args[0] == "coeffs[1]: polynomial entries must be strings, got 1.5"
