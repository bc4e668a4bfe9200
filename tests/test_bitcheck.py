"""``scripts/bitcheck.py``'s reused-memory check: each model's c07 and
train digests, and the preprocessing, resize and primitives digests, computed twice in
one process are the same, and its c07 configs are the acceptance gate's.
The second pass runs on freed, non-zero memory, so an op that reads an
``np.empty`` buffer before writing it fails here. The digests themselves
are not pinned: they depend on the BLAS kernels of the machine."""

import importlib.util
from pathlib import Path

import pytest

from vidmood.models import MODEL_NAMES

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "bitcheck.py"


def _bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_c07_digest_is_the_same_on_reused_memory(name):
    c07_digest = _bitcheck().c07_digest
    assert c07_digest(name) == c07_digest(name)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_train_digest_is_the_same_on_reused_memory(name):
    train_digest = _bitcheck().train_digest
    assert train_digest(name) == train_digest(name)


def test_prep_digest_is_the_same_on_reused_memory():
    prep_digest = _bitcheck().prep_digest
    assert prep_digest() == prep_digest()


def test_resize_digest_is_the_same_on_reused_memory():
    resize_digest = _bitcheck().resize_digest
    assert resize_digest() == resize_digest()


def test_prims_digest_is_the_same_on_reused_memory():
    prims_digest = _bitcheck().prims_digest
    assert prims_digest() == prims_digest()


def test_c07_configs_are_the_gates(monkeypatch):
    """bitcheck's and perfbench train-c07's copies of the c07 model configs
    equal the acceptance gate's, so their ``c07`` figures stay c07's."""
    from test_acceptance import _REDUCED
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    train_c07 = importlib.import_module("vmbench.train_c07")
    assert _bitcheck().REDUCED == _REDUCED
    assert train_c07.REDUCED == _REDUCED
