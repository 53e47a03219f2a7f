"""The names the benchmark traces, and the package's exports, resolve.

``smbench/layers.py`` lists the smforge functions a traced benchmark run
wraps, and ``smbench/selftest.py`` fails when one of them is gone.  These
tests check the same names in a few milliseconds, so a deletion that would
break the benchmark fails here first.  ``layers.py`` is imported, not
changed.
"""

import importlib
from pathlib import Path

import smforge

SMBENCH = Path(__file__).resolve().parent.parent / "smbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(SMBENCH))
    layers = importlib.import_module("layers")
    tracer = layers.Tracer([])
    assert layers.LAYERS
    missing = [layer.name for layer in layers.LAYERS
               if tracer._resolve(layer.module, layer.qualname) is None]
    assert missing == []


def test_every_export_resolves():
    missing = [name for name in smforge.__all__ if not hasattr(smforge, name)]
    assert missing == []
    assert len(set(smforge.__all__)) == len(smforge.__all__)
