"""The traced benchmark run wraps ctxfam's functions and constructors by
name; a renamed or removed one must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

from ctxfam import cli, family, fdlogic, formats, realisability
from ctxfam.family import ContextualFamily
from ctxfam.monoid import MonoidValue
from ctxfam.relation import KRelation

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (cli, family, fdlogic, formats, realisability, ContextualFamily, MonoidValue, KRelation)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._undo)
        assert len(wrapped) > 20
        for owner, attr, original in wrapped:
            assert any(owner is o for o in OWNERS)
            assert callable(original)
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[name] is saved[name] for name in saved), owner
