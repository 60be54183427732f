"""Bundled fixture corpus: named 1-forms, vector fields, and log types."""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .exterior import ExtForm, VField
from .grammar import parse_poly
from .logarithmic import LogType


def _raw():
    with resources.files("p3dist.data").joinpath("corpus.json").open() as fh:
        return json.load(fh)


def corpus_names():
    raw = _raw()
    return {kind: sorted(raw[kind]) for kind in ("oneforms", "vfields", "logtypes")}


def load_oneform(name):
    entry = _raw()["oneforms"][name]
    return ExtForm.one_form(*(parse_poly(s) for s in entry["coeffs"]))


def load_vfield(name):
    entry = _raw()["vfields"][name]
    return VField([parse_poly(s) for s in entry["components"]])


def load_logtype(name):
    entry = _raw()["logtypes"][name]
    return LogType(
        polys=tuple(parse_poly(s) for s in entry["polys"]),
        weights=tuple(Fraction(s) for s in entry["weights"]),
    )
