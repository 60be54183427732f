"""A parsed 1-form or field keeps the parser's rows, scaled once to primitive
integer rows keyed by packed monomials together with one rational scale,
and builds its Polys only when they are read. The commands on the integer
corpus documents build no Poly, a parsed document and the same one built
from Polys agree, and a rational multiple of a document, which changes
only the scale, gives byte-identical reports."""

import json
from fractions import Fraction

import pytest

from p3dist import cli, corpus, distribution, foliation
from p3dist.errors import ValidationError
from p3dist.exterior import ExtForm, VField, _rows_of, checked_oneform, field_degree
from p3dist.grammar import format_poly, parse_poly
from p3dist.poly import Poly

from conftest import make_rng, random_nonzero_poly
from test_linalg import random_dense_form

# the commands run on each kind of corpus entry, and the input document of
# an entry
COMMANDS = {
    "oneforms": (("analyze", "find-subfoliation"),
                 lambda e: {"kind": "oneform", "coeffs": e["coeffs"]}),
    "vfields": (("analyze-vf",), lambda e: {"kind": "vfield", "components": e["components"]}),
    "logtypes": (("log-audit",),
                 lambda e: {"kind": "logtype", "polys": e["polys"], "lambdas": e["weights"]}),
}


def run(tmp_path, capsys, command, doc):
    """(exit code, stdout, stderr) of one file command on the document."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_integer_corpus_commands_build_no_poly(tmp_path, capsys, monkeypatch):
    # a log type is a public record whose hypersurfaces are Polys
    # (`LogType.polys`), so its parse builds one per hypersurface; the
    # analysis after it builds none, and neither does any other command
    init, built = Poly.__init__, []

    def counting(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(Poly, "__init__", counting)
    runs = 0
    for kind, (commands, doc) in COMMANDS.items():
        for name, entry in corpus._raw()[kind].items():
            for command in commands:
                built.clear()
                code, out, _ = run(tmp_path, capsys, command, doc(entry))
                assert code == 0 and out, (command, name)
                hypersurfaces = len(entry["polys"]) if kind == "logtypes" else 0
                assert len(built) == hypersurfaces, (command, name)
                runs += 1
    assert runs == 4 * 2 + 3 + 3


def oneform_texts():
    """The corpus 1-forms, and seeded dense forms of degree 1 and 2 with
    integer and with rational coefficients, as coefficient texts."""
    rng = make_rng(131)
    texts = [e["coeffs"] for e in corpus._raw()["oneforms"].values()]
    for d, denominators in ((1, None), (2, None), (1, (2, 3, 5)), (2, (3, 7))):
        omega = random_dense_form(rng, d, denominators)
        texts.append([format_poly(a) for a in omega.one_form_coeffs()])
    return texts


def field_texts():
    """The corpus fields, and seeded fields of degree 1 and 2 with integer
    and with rational coefficients, as component texts."""
    rng = make_rng(137)
    texts = [e["components"] for e in corpus._raw()["vfields"].values()]
    for e, den in ((1, 1), (2, 1), (1, 6), (2, 35)):
        for _ in range(2):
            texts.append([format_poly(random_nonzero_poly(rng, e) * Fraction(rng.randint(1, 4), den))
                          for _ in range(4)])
    return texts


def outcome(analysis, document, x):
    """The report document of an analysis, or the error it raises."""
    try:
        return document(analysis(x))
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


def test_parsed_form_agrees_with_the_form_built_from_polys():
    for texts in oneform_texts():
        parsed = cli.parse_input(json.dumps({"kind": "oneform", "coeffs": texts}))
        built = ExtForm.one_form(*map(parse_poly, texts))
        assert parsed._coeffs is None and parsed._rows is not None
        assert _rows_of(parsed) == _rows_of(built)
        assert checked_oneform(parsed) == checked_oneform(built)
        assert outcome(distribution.classify, cli.dist_report_doc, parsed) == outcome(
            distribution.classify, cli.dist_report_doc, built)
        assert cli._subfoliation_doc(parsed) == cli._subfoliation_doc(built)
        # reading the view builds the Polys, which equal the given ones
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.one_form_coeffs() == built.one_form_coeffs()


def test_parsed_field_agrees_with_the_field_built_from_polys():
    for texts in field_texts():
        parsed = cli.parse_input(json.dumps({"kind": "vfield", "components": texts}))
        built = VField([parse_poly(t) for t in texts])
        assert parsed._components is None
        assert _rows_of(parsed) == _rows_of(built)
        assert field_degree(parsed) == field_degree(built)
        assert outcome(foliation.analyze, cli.foliation_report_doc, parsed) == outcome(
            foliation.analyze, cli.foliation_report_doc, built)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.components == built.components


@pytest.mark.parametrize("q", [Fraction(3, 7), Fraction(-5, 2), Fraction(1, 12), 6])
def test_rational_multiple_of_a_document_gives_the_same_report(tmp_path, capsys, q):
    rng = make_rng(139)
    docs = [("analyze", "oneform", "coeffs",
             random_dense_form(rng, d).one_form_coeffs()) for d in (1, 1, 2)]
    docs += [("analyze-vf", "vfield", "components",
              [random_nonzero_poly(rng, e) for _ in range(4)]) for e in (1, 1, 2)]
    reports = 0
    for command, kind, key, polys in docs:
        given = run(tmp_path, capsys, command, {"kind": kind, key: [format_poly(p) for p in polys]})
        scaled = run(tmp_path, capsys, command,
                     {"kind": kind, key: [format_poly(q * p) for p in polys]})
        assert scaled == given, (command, polys)
        reports += given[0] == 0
    assert reports >= 4


def test_a_field_checks_its_degree_once(monkeypatch):
    # analyze, conormal_invariants and the minors each ask for the degree;
    # the field keeps it from the first check of its rows
    from p3dist import exterior

    real, calls = exterior._common_degree, []
    monkeypatch.setattr(exterior, "_common_degree", lambda rows: calls.append(rows) or real(rows))
    for texts in field_texts()[:3]:
        for v in (cli.parse_input(json.dumps({"kind": "vfield", "components": texts})),
                  VField([parse_poly(t) for t in texts])):
            calls.clear()
            foliation.analyze(v)
            foliation.analyze(v)
            assert len(calls) == 1
