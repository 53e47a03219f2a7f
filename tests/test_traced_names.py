"""The names the benchmark traces, the package's exports and the reach
manifest's lines resolve.

``smbench/layers.py`` lists the smforge functions a traced benchmark run
wraps, and ``smbench/selftest.py`` fails when one of them is gone.  These
tests check the same names in a few milliseconds, so a deletion that would
break the benchmark fails here first.  ``layers.py`` is imported, not
changed.  Likewise a rename that would break the reach gate
(``tests/reach.py``), which takes seconds, fails here first.
"""

import importlib
from pathlib import Path

import reach
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


def test_every_reach_manifest_line_resolves():
    """Each line of the reach manifest names a function of src/smforge
    and gives one of the five reasons; the lines are sorted, one per
    function."""
    reasons, problems = reach.read_manifest(reach.functions())
    assert reasons
    assert problems == []
