"""Analytic gradients against central finite differences.

The gradients checked are those of ``_batch_loss_grad``, the mined-triplet
loss step training runs. The finite-difference reference holds the mined
(positive, negative) indices fixed and evaluates the hinge from embeddings
alone.
"""

import numpy as np
import pytest

from avatarprint.embedder import forward_batch
from avatarprint.training import _batch_loss_grad, _squared_distances

from helpers import (
    finite_difference_grad,
    max_relative_error,
    mined_triplet_loss,
    random_embedder_setup,
    reference_mine,
)

FD_STEP = 1e-5
REL_TOL = 1e-5


def _loss_grad(params, windows, labels, margin):
    return _batch_loss_grad(
        params, windows, labels, margin, "semi-hard", np.random.default_rng(0)
    )


def _direct_loss(params, windows, labels, margin):
    """Loss of the triplets mined at the current parameters, as a function
    of the parameters with those triplets held fixed."""
    z, _ = forward_batch(params, windows)
    pos, neg = reference_mine(_squared_distances(z), labels, "semi-hard", None)
    return lambda: mined_triplet_loss(params, windows, labels, pos, neg, margin)


def _check_one(seed: int, with_graph: bool) -> float:
    rng = np.random.default_rng(seed)
    params, windows, labels, margin = random_embedder_setup(rng, with_graph)
    loss, grad, _ = _loss_grad(params, windows, labels, margin)

    direct = _direct_loss(params, windows, labels, margin)
    assert loss == pytest.approx(direct(), abs=1e-12)

    numeric = finite_difference_grad(direct, params.flat, h=FD_STEP)
    return max_relative_error(grad, numeric)


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_attention_path_matches_finite_differences(seed):
    assert _check_one(seed, with_graph=False) < REL_TOL


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_graph_path_matches_finite_differences(seed):
    assert _check_one(seed, with_graph=True) < REL_TOL


def test_active_fraction_reflects_hinge_state():
    rng = np.random.default_rng(7)
    params, windows, labels, _ = random_embedder_setup(rng, with_graph=False)
    # a huge margin activates every triplet, a hugely negative one none
    _, _, frac_all = _loss_grad(params, windows, labels, margin=100.0)
    assert frac_all == 1.0
    loss, grad, frac_none = _loss_grad(params, windows, labels, margin=-100.0)
    assert frac_none == 0.0 and loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_gradient_descends_the_loss():
    rng = np.random.default_rng(8)
    params, windows, labels, margin = random_embedder_setup(rng, with_graph=False)
    loss, grad, _ = _loss_grad(params, windows, labels, margin)
    direct = _direct_loss(params, windows, labels, margin)
    params.flat -= 1e-3 * grad / np.linalg.norm(grad)
    assert direct() < loss


def test_forward_state_is_reusable_for_backward():
    # two backward passes from one forward state give identical gradients
    from avatarprint.embedder import backward_batch

    rng = np.random.default_rng(9)
    params, windows, _, _ = random_embedder_setup(rng, with_graph=True)
    z, state = forward_batch(params, windows)
    d_z = rng.normal(size=z.shape)
    g1 = backward_batch(params, state, d_z)
    g2 = backward_batch(params, state, d_z)
    np.testing.assert_array_equal(g1, g2)
