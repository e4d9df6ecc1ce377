"""Golden SHA-256 digests of every circuit template the model builds.

The grid crosses 2, 3, 5 and 8 qubits, both encodings, both ansatzes,
reuploading on and off, 1-3 layers, chains of 1 and 3 circuits, batches of
1, 7 and 16 rows and the ``pi`` and ``arccos`` rescalings. Each configuration
draws its parameters, rows, labels and class weights from its own seed, and
its digest covers, in order, each circuit's expectations, the class
probabilities, the loss and the loss gradient, so a change that moves any of
them by one ulp fails here.

``grid_digest.json`` stores the digests and the NumPy and BLAS versions they
were taken with, and the host's CPU features NumPy dispatched to and the
core OpenBLAS chose: both libraries pick their SIMD kernels at run time, so
another CPU may round differently with the same versions. After a change
that is meant to move the numerics, regenerate it with

    PYTHONPATH=src python tests/test_grid_digest.py
"""

import ctypes
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from multivqc.gradients import batch_loss_gradient
from multivqc.model import MultiVqcConfig, MultiVqcModel

DATA = Path(__file__).resolve().parent / "grid_digest.json"
MODELS = list(itertools.product((2, 3, 5, 8), ("RX", "RY"), ("basic", "strongly"),
                                (True, False), (1, 2, 3), (1, 3), ("pi", "arccos")))
BATCHES = (1, 7, 16)


def blas_core() -> str:
    """The CPU core OpenBLAS dispatches to, if NumPy bundles an OpenBLAS."""
    for library in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(library)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def versions() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.25 only prints its build configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {"name": "unknown"})
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "cpu": " ".join(config.get("SIMD Extensions", {}).get("found", [])) or "unknown",
            "blas_core": blas_core()}


def grid_digests() -> dict[str, str]:
    """``{configuration: SHA-256 hex digest}`` over the whole grid."""
    digests = {}
    for index, (qubits, encoding, ansatz, reuploading, layers, circuits, rescale) in \
            enumerate(MODELS):
        model = MultiVqcModel(MultiVqcConfig(
            n_features=qubits, n_vqcs=circuits, encoding=encoding, ansatz=ansatz,
            n_layers=layers, reuploading=reuploading, rescale=rescale))
        for batch in BATCHES:
            rng = np.random.default_rng([index, batch])
            store = model.new_store(rng)
            X = rng.uniform(0.0, np.pi, size=(batch, qubits))
            y = rng.integers(0, 2, size=batch)
            weights = rng.uniform(0.2, 1.8, size=2)
            trace = model.forward_batch(store, X)
            loss, grad = batch_loss_gradient(model, store, X, y, weights)
            sha = hashlib.sha256()
            for array in (*trace.stage_expectations, trace.probabilities, np.float64(loss), grad):
                sha.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
            key = (f"q{qubits}-{encoding}-{ansatz}-{'reup' if reuploading else 'once'}"
                   f"-L{layers}-c{circuits}-{rescale}-b{batch}")
            digests[key] = sha.hexdigest()
    return digests


class TestGridDigest:
    def test_template_grid_numerics_are_unchanged(self):
        stored = json.loads(DATA.read_text(encoding="utf-8"))
        digests = grid_digests()
        moved = sorted(key for key in stored["digests"].keys() | digests.keys()
                       if stored["digests"].get(key) != digests.get(key))
        here = versions()
        assert not moved, (
            f"{len(moved)} of {len(digests)} grid configurations moved, first {moved[:3]}; "
            f"digests recorded with NumPy {stored['numpy']}, BLAS {stored['blas']} on "
            f"CPU features {stored['cpu']!r}, BLAS core {stored['blas_core']!r}; computed "
            f"here with NumPy {here['numpy']}, BLAS {here['blas']} on CPU features "
            f"{here['cpu']!r}, BLAS core {here['blas_core']!r}. Matching versions on "
            "other CPU features or another BLAS core point to the host, not the code. "
            "If the change is meant to move the numerics, regenerate the file with "
            "'PYTHONPATH=src python tests/test_grid_digest.py'.")


if __name__ == "__main__":
    DATA.write_text(json.dumps({**versions(), "digests": grid_digests()}, indent=1,
                               sort_keys=True) + "\n", encoding="utf-8")
