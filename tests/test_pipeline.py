"""End-to-end consistency: unsteerability of the lossy-noisy state via an
explicit hidden-state model assembled from a joint-measurability certificate.
"""

import numpy as np

import steerlab
from steerlab.assemblage import lhs_model_residual, steer
from steerlab.certifier import discretize_parent, exact_certificate, lp_feasibility
from steerlab.covariant import ResponseFunctionModel
from steerlab.linalg import frobenius
from steerlab.lossy import NoiseParams, noisify_povm
from steerlab.objects import (
    Povm,
    lossy_noisy_channel,
    mub_pair,
    one_way_state,
)
from steerlab.rand import random_povm

from test_lossy import embed_with_vacuum


def test_steered_assemblage_is_transposed_dual():
    # conditional states of the measured lossy side equal the pulled-back
    # effects, transposed and scaled by 1/d
    d, eta, p = 2, 0.5, 0.5
    rho = one_way_state(d, eta, p)
    chain = lossy_noisy_channel(d, eta, p)
    rng = np.random.default_rng(0)
    povms = [random_povm(d + 1, 3, rng) for _ in range(2)]
    sigma = steer(rho, povms, measured_side=1)
    for x, povm in enumerate(povms):
        for a, effect in enumerate(povm.effects):
            pulled = chain.dual(effect)
            assert frobenius(sigma.entry(a, x) - pulled.T / d) < 1e-12


def test_unsteerable_assemblage_has_explicit_lhs_model():
    # at the transmission bound, measurements on the lossy side pull back to
    # jointly measurable POVMs; the certificate's parent atoms double as the
    # hidden-state ensemble reproducing the assemblage
    d, p = 2, 0.5
    eta = (1.0 - p) ** (d - 1)
    rho = one_way_state(d, eta, p)
    chain = lossy_noisy_channel(d, eta, p)
    rng = np.random.default_rng(1)
    bob_povms = [random_povm(d + 1, 3, rng), embed_with_vacuum(mub_pair(d)[0])]
    sigma = steer(rho, bob_povms, measured_side=1)

    pulled_back = [
        Povm([chain.dual(mat) for mat in povm.effects], povm.labels)
        for povm in bob_povms
    ]
    parent = discretize_parent(d, 1500, seed=2)
    cert = lp_feasibility(pulled_back, parent, tol=1e-4)
    assert cert.status == "feasible"

    # the parent atoms, transposed and divided by d, are the hidden states
    residual = lhs_model_residual(sigma, parent.effects.transpose(0, 2, 1) / d, cert.conditionals)
    assert residual <= cert.residual / d + 1e-12
    assert residual <= 1e-4


def test_model_conditionals_give_lhs_model_directly():
    # same pipeline, with conditionals built from the explicit covariant
    # model instead of the LP (single measurement, exact parent)
    d, p = 3, 0.4
    eta = (1.0 - p) ** (d - 1)
    rho = one_way_state(d, eta, p)
    m = mub_pair(d)[1]
    params = NoiseParams(d=d, eta=eta, p=p)
    jm_model = ResponseFunctionModel(m, params)

    # Bob measures the vacuum-embedded version on his enlarged side; its
    # pull-back is exactly the noisified POVM
    embedded = embed_with_vacuum(m)
    sigma = steer(rho, [embedded], measured_side=1)
    target = noisify_povm(m, params)
    chain = lossy_noisy_channel(d, eta, p)
    for label, mat in zip(embedded.labels, embedded.effects):
        assert frobenius(chain.dual(mat) - target.effect(label)) < 1e-12

    # hidden-state ensemble from the parent and relabelling of the model's
    # exact certificate
    cert = exact_certificate(jm_model)
    residual = lhs_model_residual(sigma, cert.parent.effects.transpose(0, 2, 1) / d,
                                  cert.conditionals)
    assert residual < 1e-12


def test_public_names_resolve():
    # every exported name exists, so a star import works and binds them all
    assert all(hasattr(steerlab, name) for name in steerlab.__all__)
    namespace = {}
    exec("from steerlab import *", namespace)
    assert set(steerlab.__all__) <= set(namespace)
