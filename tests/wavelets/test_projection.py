"""``project_batch``: the coefficients of the model a coefficient vector reconstructs.

JWINS takes ``F_new = forward(inverse(C))`` as the next round's start
coefficients without running either transform: the padded DWT with its pad
samples set free is orthogonal, so ``forward(inverse(C))`` is ``C`` minus its
components along the images ``v_j`` of the pad samples.  Pinned here against
the two-transform composition on every layout of the five tasks and a spread
of padded and unpadded sizes.

The tolerance is 1e-11, not 1e-12: the db2/sym2 taps (PyWavelets') are
orthonormal only to ``sum(h**2) - 1 = -5.7e-13``, the Gram matrix of the
``v_j`` is the identity only to about 9e-13, and the composition and the
projection land about 1.3e-12 apart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.workloads import WORKLOADS
from repro.nn.module import get_flat_parameters
from repro.wavelets.filters import get_filter_bank
from repro.wavelets.transform import IdentityTransform, WaveletTransform, pad_images

TOLERANCE = 1e-11

#: Padded at every level (7,169), at some (51 ... 273,418) and at none (16, 65,536).
SIZES = [16, 51, 340, 342, 2051, 7169, 18490, 65536, 273418]


def task_model_size(name: str) -> int:
    task = WORKLOADS[name].make_task(1)
    return int(get_flat_parameters(task.make_model(np.random.default_rng(0))).size)


def relative(actual: np.ndarray, expected: np.ndarray) -> tuple[float, float]:
    """Norm-relative and max-abs-relative distance."""

    difference = actual - expected
    return (
        float(np.linalg.norm(difference) / np.linalg.norm(expected)),
        float(np.abs(difference).max() / np.abs(expected).max()),
    )


def check_projection(transform: WaveletTransform, rows: int = 3, seed: int = 0) -> None:
    coefficients = np.random.default_rng(seed).normal(size=(rows, transform.coefficient_size()))
    expected = transform.forward_batch(transform.inverse_batch(coefficients))
    projected = transform.project_batch(coefficients)
    assert max(relative(projected, expected)) <= TOLERANCE
    # A projection: idempotent, and its output is in the DWT's range.
    assert max(relative(transform.project_batch(projected), projected)) <= TOLERANCE
    images = pad_images(transform.layout)
    assert len(images) == sum(transform.layout.pad_flags)
    for indices, values in images:
        assert np.abs(projected[:, indices] @ values).max() <= TOLERANCE * np.abs(projected).max()
    # Every row is the one-row call, byte for byte.
    for row in range(rows):
        alone = transform.project_batch(coefficients[row][None])
        assert alone.tobytes() == projected[row][None].tobytes()
    assert not np.shares_memory(projected, coefficients)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_projection_on_every_task_layout(name):
    check_projection(WaveletTransform(task_model_size(name)))


@pytest.mark.parametrize("model_size", SIZES)
def test_projection_equals_forward_of_inverse(model_size):
    check_projection(WaveletTransform(model_size))


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
@pytest.mark.parametrize("model_size", [51, 287, 2051])
def test_projection_holds_for_other_wavelets(wavelet, model_size):
    check_projection(WaveletTransform(model_size, wavelet=wavelet))


@pytest.mark.parametrize("model_size", [16, 65536])
def test_an_unpadded_layout_projects_to_a_copy(model_size):
    """No pad sample, no ``v_j``: the DWT is onto and projecting copies."""

    transform = WaveletTransform(model_size)
    assert not any(transform.layout.pad_flags)
    assert pad_images(transform.layout) == ()
    coefficients = np.random.default_rng(1).normal(size=(2, transform.coefficient_size()))
    assert transform.project_batch(coefficients).tobytes() == coefficients.tobytes()


def test_pad_images_are_sparse_orthonormal_and_shared():
    transform = WaveletTransform(7169)  # padded at all four levels
    images = pad_images(transform.layout)
    assert images is pad_images(WaveletTransform(7169).layout)  # one copy per layout
    taps = get_filter_bank("sym2").dec_lo.size
    basis = np.zeros((transform.coefficient_size(), len(images)))
    for column, (indices, values) in enumerate(images):
        assert not indices.flags.writeable and not values.flags.writeable
        assert 0 < indices.size <= taps * transform.levels  # a few taps per level
        basis[indices, column] = values
    assert np.abs(basis.T @ basis - np.eye(len(images))).max() <= TOLERANCE
    # Orthogonal to the DWT's range.
    model = np.random.default_rng(2).normal(size=7169)
    assert np.abs(basis.T @ transform.forward(model)).max() <= TOLERANCE * np.abs(model).max()


def test_projection_is_needed():
    """``forward(inverse(C))`` is measurably not ``C`` on a padded layout."""

    transform = WaveletTransform(18490)
    coefficients = np.random.default_rng(3).normal(size=(1, transform.coefficient_size()))
    expected = transform.forward_batch(transform.inverse_batch(coefficients))
    assert relative(coefficients, expected)[0] > 1e-3


def test_identity_transform_projects_to_an_exact_copy():
    transform = IdentityTransform(32)
    coefficients = np.random.default_rng(4).normal(size=(3, 32))
    projected = transform.project_batch(coefficients)
    assert projected.tobytes() == coefficients.tobytes()
    assert not np.shares_memory(projected, coefficients)
