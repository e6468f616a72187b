"""Gated dynamic fusion of the two feature streams.

The gate is a per-position bottleneck: a 1x1 projection down to a quarter of
the channels, ReLU, a 1x1 projection back up, and a sigmoid, giving weights
omega in (0, 1). The fusion routes omega to the transformer stream and
(1 - omega) to the CNN stream, with learnable scalars alpha1/alpha2
balancing the two terms.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .params import ONES, ZEROS, acc_grad, normal

def dfm_spec(cfg) -> list:
    d, d4 = cfg.embed_dim, cfg.gate_dim
    return [
        ("dfm.w1", (d, d4), normal()),
        ("dfm.b1", (d4,), ZEROS),
        ("dfm.w2", (d4, d), normal()),
        ("dfm.b2", (d,), ZEROS),
        ("dfm.alpha1", (), ONES),
        ("dfm.alpha2", (), ONES),
    ]


def gate_weights_fwd(f, params):
    """omega = sigmoid(w2 . relu(w1 . f)) per spatial position."""
    h1, c1 = ops.linear_fwd(f, params["dfm.w1"], params["dfm.b1"])
    a1, c_relu = ops.relu_fwd(h1)
    h2, c2 = ops.linear_fwd(a1, params["dfm.w2"], params["dfm.b2"])
    omega, c_sig = ops.sigmoid_fwd(h2)
    return omega, (c1, c_relu, c2, c_sig)


def gate_weights_bwd(domega, cache, grads):
    c1, c_relu, c2, c_sig = cache
    dh2 = ops.sigmoid_bwd(domega, c_sig)
    da1, dw2, db2 = ops.linear_bwd(dh2, c2)
    acc_grad(grads, "dfm.w2", dw2)
    acc_grad(grads, "dfm.b2", db2)
    dh1 = ops.relu_bwd(da1, c_relu)
    df, dw1, db1 = ops.linear_bwd(dh1, c1)
    acc_grad(grads, "dfm.w1", dw1)
    acc_grad(grads, "dfm.b1", db1)
    return df


def dfm_forward(fvit, fres, params):
    """Fuse aligned maps (B, G, G, D) into one map of the same shape."""
    if fvit.shape != fres.shape:
        raise ops.ShapeError(f"dfm_forward: stream shapes {fvit.shape} and {fres.shape} differ")
    f = fvit + fres
    omega, c_gate = gate_weights_fwd(f, params)
    a1 = params["dfm.alpha1"]
    a2 = params["dfm.alpha2"]
    out = a1 * (omega * fvit) + a2 * ((1.0 - omega) * fres)
    return out, (fvit, fres, omega, c_gate, a1, a2)


def dfm_backward(dout, cache, params, grads):
    fvit, fres, omega, c_gate, a1, a2 = cache
    acc_grad(grads, "dfm.alpha1", np.array((dout * omega * fvit).sum()))
    acc_grad(grads, "dfm.alpha2", np.array((dout * (1.0 - omega) * fres).sum()))
    dfvit = dout * a1 * omega
    dfres = dout * a2 * (1.0 - omega)
    domega = dout * a1 * fvit - dout * a2 * fres
    df = gate_weights_bwd(domega, c_gate, grads)
    return dfvit + df, dfres + df
