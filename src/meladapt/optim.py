"""Adam with bias correction over flat arenas.

`AdamState(params)` packs one trainable set, a {name: Tensor} dict, into
float64 arenas in the dict's order: the parameters, their gradients, and
Adam's moments `m` and `v`. Each tensor's `data` and `grad` become reshaped
views of the first two, so ops read the arena, `backward` adds gradients
into it in place, and one `adam_step` is a fixed number of ufunc passes
however many tensors the set holds. The passes are elementwise and keep the
textbook operand order, `(1-b2)*(g*g)` and `(lr*mhat)/(sqrt(vhat)+eps)`, so
the result equals a tensor-by-tensor update bit for bit.

`adam_step` runs all of its passes over one chunk of `ADAM_CHUNK` elements
of the arenas before it moves to the next, so its scratch buffer is one
chunk long whatever the set's size, and a chunk's slices of the five arrays
it touches stay in cache from the first pass to the last. The last chunk
may be shorter. Elementwise passes give the same bits however the arena is
cut.

A packed tensor must be written into, never rebound (`t.data[...] = x`, not
`t.data = x`): a rebound tensor is detached, and later steps update the
arena without it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

# FastSpeech 2's Adam setting (arXiv 2006.04558). BETA1 > 0.5 also keeps the
# arena's moments free of -0.0 (see `autodiff`'s module docstring).
BETA1 = 0.9
BETA2 = 0.98
EPSILON = 1e-9

# elements per chunk of `adam_step`'s passes: a 256 KB float64 scratch buffer
ADAM_CHUNK = 32768


class AdamState:
    """Adam's step counter and arenas for one trainable set.

    `t` increases by exactly 1 per applied step. `data`, `grad`, `m` and `v`
    are the flat arenas; `views(arena)` names a parameter's slice of any of
    them, and `grads` holds the gradient views that `backward` fills.
    """

    def __init__(self, params):
        self.t = 0
        self._slices = {}
        end = 0
        for name, t in params.items():
            self._slices[name] = (slice(end, end + t.size), t.shape)
            end += t.size
        self.data = np.empty(end)
        self.grad = np.zeros(end)
        self.m = np.zeros(end)
        self.v = np.zeros(end)
        self._scratch = np.empty(min(end, ADAM_CHUNK))
        data, self.grads = self.views(self.data), self.views(self.grad)
        for name, t in params.items():
            data[name][...] = t.data
            t.data, t.grad = data[name], self.grads[name]

    def views(self, arena):
        """{name: that parameter's slice of `arena`, in its shape}."""
        return {name: arena[s].reshape(shape) for name, (s, shape) in self._slices.items()}


def adam_step(params, grads, state, *, lr, group_of=None):
    """Apply one bias-corrected Adam update at rate `lr` to the set `state` packed.

    `params` is that {name: Tensor} set and `grads` its gradient views,
    `state.grads`; a parameter no gradient reached reads zeros there and
    moves only by its momentum. A non-finite gradient aborts before `t`,
    the moments or any parameter is touched, naming the first offending
    parameter in the set's order and (when `group_of` is given) its group.
    The step leaves scratch values in the gradient arena, so a training
    loop zeroes it before the next `backward`.
    """
    if params.keys() != state.grads.keys():
        raise ShapeError(f"parameter names do not match the packed set: "
                         f"{sorted(params.keys() ^ state.grads.keys())}")
    if grads is not state.grads:
        raise ShapeError("adam_step reads the gradients from the state's arena; "
                         "pass state.grads")
    g = state.grad
    if not np.isfinite(g).all():
        name = next(n for n, a in grads.items() if not np.isfinite(a).all())
        group = f" (group {group_of(name)})" if group_of else ""
        raise NumericError(f"non-finite gradient for parameter '{name}'{group}")
    state.t += 1
    b1, b2 = BETA1, BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for lo in range(0, g.size, ADAM_CHUNK):
        hi = lo + ADAM_CHUNK
        gc, m, v, data = g[lo:hi], state.m[lo:hi], state.v[lo:hi], state.data[lo:hi]
        s = state._scratch[:gc.size]
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        m *= b1
        np.multiply(gc, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.multiply(gc, gc, out=s)
        s *= 1.0 - b2
        v += s
        # data -= (lr*mhat) / (sqrt(vhat) + eps), with vhat built in g's place
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=gc)
        np.sqrt(gc, out=gc)
        gc += EPSILON
        s /= gc
        data -= s
