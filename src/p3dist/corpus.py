"""Bundled fixture corpus: named 1-forms, vector fields, and log types."""

from __future__ import annotations

import json
from importlib import resources


def _raw():
    with resources.files("p3dist.data").joinpath("corpus.json").open() as fh:
        return json.load(fh)


def corpus_names():
    raw = _raw()
    return {kind: sorted(raw[kind]) for kind in ("oneforms", "vfields", "logtypes")}


def _load(kind, name):
    """The corpus entry read as an input document of its kind."""
    from .cli import parse_input  # cli imports this module
    return parse_input(json.dumps({"kind": kind, **_raw()[kind + "s"][name]}))


def load_oneform(name):
    return _load("oneform", name)


def load_vfield(name):
    return _load("vfield", name)


def load_logtype(name):
    return _load("logtype", name)
