"""Every public entry point that needs a distribution checks its 1-form the
same way, and the analyses leave no memoized state behind in the package."""

import importlib
import pkgutil

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import p3dist  # noqa: E402
from p3dist import cli, corpus, distribution, exterior, foliation, linalg  # noqa: E402
from p3dist.errors import ValidationError  # noqa: E402
from p3dist.exterior import ExtForm, contract, radial_field  # noqa: E402
from p3dist.poly import Poly, monomials_of_degree  # noqa: E402

from conftest import module_cache_sizes  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

ENTRY_POINTS = {
    "validate_oneform": distribution.validate_oneform,
    "classify": distribution.classify,
    "singular_scheme": distribution.singular_scheme,
    "is_integrable": distribution.is_integrable,
    "compute_tF": linalg.compute_tF,
    "h0_tangent_twist": lambda omega: linalg.h0_tangent_twist(omega, 1),
    "minimal_section": lambda omega: linalg.minimal_section(omega, 1),
    "contraction_check": lambda omega: foliation.contraction_check(radial_field(), omega),
}

coeff = st.integers(-3, 3).filter(bool)


def homogeneous(degree):
    """Nonzero homogeneous polynomials of the given degree, up to 3 terms."""
    return st.dictionaries(st.sampled_from(monomials_of_degree(degree)), coeff,
                           min_size=1, max_size=3).map(Poly)


def four(polys):
    return st.lists(polys, min_size=4, max_size=4)


zero = st.just(Poly.zero())


@st.composite
def mixed_degrees(draw):
    a, b = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    rest = draw(st.lists(st.one_of(zero, homogeneous(a), homogeneous(b)),
                         min_size=2, max_size=2))
    return ExtForm.one_form(draw(homogeneous(a)), draw(homogeneous(b)), *rest)


@st.composite
def non_homogeneous(draw):
    a, b = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    coeffs = draw(four(st.one_of(zero, homogeneous(a))))
    coeffs[draw(st.integers(0, 3))] = draw(homogeneous(a)) + draw(homogeneous(b))
    return ExtForm.one_form(*coeffs)


@st.composite
def euler_violations(draw):
    coeffs = draw(four(st.one_of(zero, homogeneous(draw(st.integers(1, 3))))))
    omega = ExtForm.one_form(*coeffs)
    assume(not contract(radial_field(), omega).is_zero())
    return omega


malformed_forms = st.one_of(
    homogeneous(1).map(ExtForm.from_function),                          # grade 0
    homogeneous(1).map(lambda p: ExtForm(2, {(0, 1): p, (2, 3): p})),   # grade 2
    st.just(ExtForm(1)),                                                # zero form
    four(st.one_of(zero, homogeneous(0)))                               # constants
    .filter(lambda cs: any(cs)).map(lambda cs: ExtForm.one_form(*cs)),
    mixed_degrees(),
    non_homogeneous(),
    euler_violations(),
)


@FUZZ
@given(malformed_forms, st.sampled_from(sorted(ENTRY_POINTS)))
def test_malformed_forms_raise_validation_errors(omega, entry):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](omega)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_checks_a_form_once(entry, example1, monkeypatch):
    # every entry point checks through `checked_oneform`, which keeps the
    # result on the form: one `oneform_degree` call for a fresh form, and
    # none when classify then runs on the same form
    calls = []
    real = exterior.oneform_degree
    monkeypatch.setattr(exterior, "oneform_degree", lambda omega: calls.append(omega) or real(omega))
    omega = ExtForm.one_form(*example1.one_form_coeffs())
    ENTRY_POINTS[entry](omega)
    assert len(calls) == 1
    distribution.classify(omega)
    assert len(calls) == 1


def test_each_form_is_scaled_to_integers_once(example1, monkeypatch):
    # oneform_degree scales the coefficients once and the checks read them
    # from the form's check record; the section scan builds its section as
    # integers, which minimal_section certifies, and a field is scaled once
    # per check of it. The radial field is read as integer dicts, never built.
    calls = {"integer_multiples": 0, "radial_field": 0}
    modules = [importlib.import_module(f"p3dist.{m.name}")
               for m in pkgutil.iter_modules(p3dist.__path__)]
    binders = []
    for name in calls:
        real = getattr(exterior, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
                binders.append(f"{module.__name__}.{name}")
    assert {"p3dist.exterior.integer_multiples", "p3dist.foliation.integer_multiples",
            "p3dist.logarithmic.integer_multiples"} <= set(binders)

    def counts(run, arg):
        calls.update(dict.fromkeys(calls, 0))
        run(arg)
        return calls["integer_multiples"], calls["radial_field"]

    def fresh():
        return ExtForm.one_form(*example1.one_form_coeffs())

    assert counts(exterior.checked_oneform, fresh()) == (1, 0)
    assert counts(distribution.classify, fresh()) == (1, 0)
    assert counts(linalg.compute_tF, fresh()) == (1, 0)
    assert counts(cli._subfoliation_doc, fresh()) == (1, 0)
    assert counts(foliation.analyze, corpus.load_vfield("four_points")) == (1, 0)


def test_analysis_keeps_no_module_cache():
    modules = [importlib.import_module(f"p3dist.{m.name}")
               for m in pkgutil.iter_modules(p3dist.__path__)]
    before = {m.__name__: module_cache_sizes(m) for m in modules}
    names = corpus.corpus_names()
    for name in names["oneforms"]:
        distribution.classify(corpus.load_oneform(name))
    for name in names["vfields"]:
        foliation.analyze(corpus.load_vfield(name))
    assert {m.__name__: module_cache_sizes(m) for m in modules} == before
    memoized = [f"{m.__name__}.{name}" for m in modules for name, value in vars(m).items()
                if hasattr(value, "cache_info") and value.cache_info().currsize]
    assert memoized == []
