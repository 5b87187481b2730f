"""Dense tensors with tape-based reverse-mode automatic differentiation.

The op set is closed over what the model needs, four ops: the token stem
`embed` (the patch projection, the positional table and the CLS tokens in
front), the transformer `block` (its two pre-norm residual branches as one
op: layer norm, the q/k/v projections, multi-head attention, the output
projection and the drop-path residual, then layer norm, the exact-GELU FFN
and the drop-path residual), the `head` (layer norm of the CLS rows, then
the GELU MLP on them side by side) and soft-target `cross_entropy`. No op
transposes: weights are stored in [in, out] layout, and constant inputs
such as images are rearranged in numpy before they reach an op. Training
runs in float32; gradient checking runs the same code in float64. The
GELU's erf (in `_normal_cdf`, which is elementwise) is a rational
approximation in float32 and `scipy.special.erf` in float64; scipy is
imported on the float64 path only, so a float32 run loads no compiled
scipy module. `_gelu` is the one pass that tiles its array: it runs the
normal CDF and GELU' in cache-sized blocks. Ops record nodes on the active
`Tape`; `grads = backward(loss, tape, params)` returns the gradients,
which are values, not state kept on tensors.

`block` can return only each sample's first rows: the model's last block
computes just the CLS rows that `head` reads. q, k and v each run their own
GEMMs, so q projects only those rows, and k and v all rows.

A node keeps its input tensors and what its VJP cannot cheaply rebuild
from them: `embed` the constant patch rows; `block` the mid-block residual
mid (the FFN branch's input), both layer norms' row statistics mu and inv,
and each softmax row's max m and sum of exponentials l ([B,h,rows,1], 1/S
of the attention weights P); `head` its layer norm's row statistics;
`cross_entropy` its targets and log-probabilities. A VJP rebuilds every
other intermediate it reads (the normalized inputs, q, k and v, P, the
GELU's pre-activation h and Phi(h)) with the forward's operations in the
forward's order, so bit for bit: activation recomputation
(arXiv:1604.06174), with P rebuilt from m and l as in FlashAttention's
backward (arXiv:2205.14135). So an op frees the same memory with or
without a tape. `block` runs its forward and its VJP over the same chunks
of samples (_CHUNK), each chunk through both branches, so the rebuilt
arrays stay the forward's bit for bit, and a VJP's scratch is a chunk's,
not the batch's: only the parameter cotangents span chunks, summed in chunk
order. A train-mode forward of the paper recipe at batch 32 is 12 tape
nodes with the loss and keeps 30 MB (two [S,C] arrays per block and
sample, mid and the output, but the last block keeps only the CLS rows),
and the step peaks at 44 MB in backward (tracemalloc), 140 MB at batch 128.

Lanes: within `lanes(run)` (train's shard runner runs a lone shard in one,
with its thread pool's map), `block` cuts the batch into a multiple of
LANES chunks of at most _CHUNK / LANES bytes and runs them LANES at a time
through `run`, so a one-worker step uses two CPUs. This module starts no
threads: the runner owns the only pool. A chunk writes only its own slices
of the op's arrays, and the parameter cotangents are still summed in chunk
order, so the bits follow the partition alone, never the thread count or
schedule. Blocks of any other thread run serially over the serial
partition.

Determinism: all reductions go through numpy with a fixed evaluation order,
so repeated runs on the same inputs produce bitwise-identical results.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

F32 = np.float32
F64 = np.float64

LAYER_NORM_EPS = 1e-6   # every layer norm's: added to the row variance
_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

# The float32 erf of Eigen and XLA: x P(x^2) / Q(x^2) on x clipped to
# [-4, 4], max abs error 4.4e-7. Coefficients from the highest power down.
_ERF_P = tuple(F32(c) for c in (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                                -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                                -1.60960333262415e-02))
_ERF_Q = tuple(F32(c) for c in (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                                -7.37332916720468e-03, -1.42647390514189e-02))
_ERF_CLIP = F32(4.0)
# Elements per block of _gelu, the one pass that tiles (its erf and GELU'
# steps; _normal_cdf itself is elementwise): 384 KB of float32, 128 rows of
# the paper FFN's 768 hidden units. With two threads on a 2 MB L2 this timed
# fastest of 32-256 rows; much smaller blocks pay Python's per-ufunc overhead.
_BLOCK = 96 * 1024
# Bytes per chunk of samples of a block's largest per-sample arrays: its h or
# its q, k and v together, whichever is larger; at the paper recipe h, 15
# samples a chunk (7 on the lanes). When the FFN branch chunked rows of h and
# the attention branch samples, on a 2-vCPU x86 box interleaved paper steps
# ran 13-25% slower at 1 MB (a 4 MB lower peak) than in one chunk, and within
# noise of it at 3 MB: GEMMs of fewer rows run slower per row. On the lanes a
# chunk holds at most _CHUNK / LANES bytes, so the LANES chunks in flight hold
# no more than one chunk does without them.
_CHUNK = 3 * 1024 * 1024
# The lanes' partition: a thread that has lanes (see `lanes`) cuts a batch
# into a multiple of LANES chunks, whatever the number of lane threads, so
# the bits depend on whether it has lanes and never on the CPU count.
LANES = 2
# Bytes of the attention weights P per sub-chunk of samples that a block's
# attention core runs over within a chunk, forward and VJP: about two samples
# at the paper recipe. What it buys is memory: P and its softmax temporaries
# exist for one sub-chunk at a time, which took the one-worker paper bs-32
# step peak from 45.0-46.2 to 41.9 MB (50.6-51.5 from 59.8-62.0 MB at two
# workers) when it came in, with no step time change beyond noise.
_ATTENTION_CHUNK = 512 * 1024


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GraphError(RuntimeError):
    """A tensor was not produced under the tape being replayed."""


class Tensor:
    """Dense n-dimensional array; ops on a tape record it if it requires grad."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (F32, F64):
            arr = arr.astype(F32)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Nodes are (output, inputs, vjp) triples in execution order (topological
    by construction); ``backward`` pops them, in reverse, so it runs once per
    tape. A Tape is confined to one worker thread. Usable as a context manager::

        with Tape() as tape:
            loss = ...
        grads = backward(loss, tape, params)
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        if not hasattr(_tls, "stack"):
            _tls.stack = []
        _tls.stack.append(self)
        return self

    def __exit__(self, *exc):
        _tls.stack.pop()
        return False


_tls = threading.local()


def _active_tape() -> Tape | None:
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


@contextlib.contextmanager
def lanes(run):
    """Until the with-block exits, the `block` calls of this thread, forward
    and VJP, cut the batch into the lanes' partition (_chunks with LANES)
    and run its chunks LANES at a time through `run`, a map: a thread
    pool's runs them on its threads, the lanes, and the builtin `map` in
    this thread, one after another. Each chunk writes only its own slices of
    the op's arrays, and the parameter cotangents are summed in chunk order,
    so the bits do not depend on `run`'s threads or on the thread schedule.
    Other threads' blocks, such as those of shard threads, keep the serial
    partition. No thread is started here: the caller owns the pool behind
    `run` (train's shard runner) and sets the BLAS count the lanes' GEMMs
    run under."""
    before = getattr(_tls, "lanes", None)
    _tls.lanes = run
    try:
        yield
    finally:
        _tls.lanes = before


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording a backward node if a tape is active and
    an input requires grad.

    `vjp` maps the output cotangent to a tuple of per-input cotangents
    (None entries are skipped).
    """
    tape = _active_tape()
    recorded = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=recorded)
    if recorded:
        tape._nodes.append((out, inputs, vjp))
    return out


# ---------------------------------------------------------------------------
# the token stem

def embed(patches: np.ndarray, w: Tensor, b: Tensor, pos: Tensor, tokens: Tensor) -> Tensor:
    """[B, n+L, C]: the n rows of `tokens` [n,C], shared by every sample, in
    front of each sample's patches @ w + b + pos, for the constant patch
    rows [B,L,D], w [D,C], b [C] and a positional table pos [L,C], learnable
    or frozen. One 2-D GEMM over the flattened batch gives the projection
    and dW; the node keeps the patch rows."""
    p = np.shape(patches)
    if not (len(p) == 3 and w.ndim == 2 and tokens.ndim == 2 and p[2:] == w.shape[:1]
            and b.shape == w.shape[1:] == tokens.shape[1:] and pos.shape == (p[1], *b.shape)):
        raise ShapeError("embed needs patches [B,L,D], w [D,C], b [C], pos [L,C] and tokens [n,C], "
                         f"got {p}, " + ", ".join(str(t.shape) for t in (w, b, pos, tokens)))
    (batch, length, _), (n, c) = p, tokens.shape
    x2 = patches.reshape(-1, w.shape[0])
    y = x2 @ w.data
    y += b.data
    out = np.empty((batch, n + length, c), y.dtype)
    out[:, :n] = tokens.data
    np.add(y.reshape(batch, length, c), pos.data, out=out[:, n:])

    def vjp(g):
        g2 = g[:, n:].reshape(-1, c)
        return x2.T @ g2, g2.sum(axis=0), g[:, n:].sum(axis=0), g[:, :n].sum(axis=0)

    return _make(out, (w, b, pos, tokens), vjp)


# ---------------------------------------------------------------------------
# erf and the normal CDF, elementwise; _gelu runs them in cache-sized blocks

def _erf32(x: np.ndarray) -> None:
    """erf(x) in place for a float32 x."""
    np.clip(x, -_ERF_CLIP, _ERF_CLIP, out=x)
    x2 = x * x
    acc = np.empty_like(x)
    for coeffs, combine in ((_ERF_P, np.multiply), (_ERF_Q, np.divide)):
        np.multiply(x2, coeffs[0], out=acc)     # Horner in x^2
        for c in coeffs[1:-1]:
            acc += c
            acc *= x2
        acc += coeffs[-1]
        combine(x, acc, out=x)


def _normal_cdf(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Phi(h) = (1 + erf(h / sqrt 2)) / 2 into `out` (a new array if None),
    one elementwise pass per step over all of h: _gelu hands it cache-sized
    blocks. The erf is the rational one in float32, scipy's in float64."""
    out = np.multiply(h, _INV_SQRT2, out=out)
    if out.dtype == F32:
        _erf32(out)
    else:
        from scipy import special   # float64 only: a float32 run never loads it
        special.erf(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _gelu(h: np.ndarray, gh: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """h * Phi(h) for a C-contiguous h into `out` (a new array if None; h
    itself overwrites h). The one pass that tiles: it runs block by block of
    _BLOCK elements, so each block's steps run while it is in cache, with no
    full-size Phi(h). Every step is an elementwise ufunc, so an element's
    bits do not depend on where the blocks fall. Given the cotangent gh of
    the GELU output, the same pass also scales gh in place by GELU'(h) =
    Phi(h) + h pdf(h): a VJP recomputes Phi(h) rather than keeping it."""
    a = np.empty_like(h) if out is None else out
    hf, af = h.reshape(-1), a.reshape(-1)
    gf = None if gh is None else gh.reshape(-1)
    phi, d = np.empty((2, min(h.size, _BLOCK)), h.dtype)
    for i in range(0, hf.size, _BLOCK):
        hb = hf[i:i + _BLOCK]
        pb = _normal_cdf(hb, phi[:hb.size])
        if gf is not None:
            db = d[:hb.size]
            np.multiply(hb, -0.5, out=db)
            db *= hb
            np.exp(db, out=db)
            db *= _INV_SQRT_2PI
            db *= hb
            db += pb
            gf[i:i + _BLOCK] *= db
        np.multiply(hb, pb, out=af[i:i + _BLOCK])
    return a


# ---------------------------------------------------------------------------
# the GELU MLP, shared by block and head

def _check_mlp(op: str, width: int, *operands: Tensor) -> None:
    """Refuse w1, b1, w2 and b2, the last four of `operands`, unless w1 takes
    `width` inputs and the four chain; the message lists every operand."""
    w1, b1, w2, b2 = operands[-4:]
    if (w1.ndim != 2 or w2.ndim != 2 or w1.shape[0] != width or b1.shape != w1.shape[1:]
            or w2.shape[:1] != w1.shape[1:] or b2.shape != w2.shape[1:]):
        raise ShapeError(f"{op} needs w1 [{width}, hidden], b1 [hidden], w2 [hidden, out] and "
                         f"b2 [out], got " + ", ".join(str(t.shape) for t in operands))


def _gelu_hidden(x2: np.ndarray, w1: Tensor, b1: Tensor, gh: np.ndarray | None = None) -> np.ndarray:
    """gelu(h) for rows x2, written over the pre-activation h = x2 w1 + b1.
    The forward calls it with gh None. A VJP calls it again, which rebuilds
    h bit for bit, with the cotangent gh of gelu(h), which the same pass
    scales in place by GELU'(h) (see _gelu)."""
    h = x2 @ w1.data
    h += b1.data
    return _gelu(h, gh, out=h)


def _mlp_forward(x2: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 out: np.ndarray | None = None) -> np.ndarray:
    """gelu(x2 w1 + b1) w2 + b2 for rows x2, into `out` (a new array if None)."""
    out = np.matmul(_gelu_hidden(x2, w1, b1), w2.data, out=out)
    out += b2.data
    return out


def _mlp_vjp(x2: np.ndarray, g: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor):
    """(d x2, dw1, db1, dw2, db2) of _mlp_forward for the output cotangent
    g; h, gelu(h) and GELU'(h) come from one pass that rebuilds h."""
    g2 = g.reshape(-1, w2.shape[1])
    gh = g2 @ w2.data.T
    gw2 = _gelu_hidden(x2, w1, b1, gh).T @ g2
    return gh @ w1.data.T, x2.T @ gh, gh.sum(axis=0), gw2, g2.sum(axis=0)


# ---------------------------------------------------------------------------
# layer normalization

def _check_norm(op: str, x: Tensor, gamma: Tensor, beta: Tensor) -> None:
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ShapeError(f"{op} needs x [..., C], gamma [C] and beta [C], "
                         f"got {x.shape}, {gamma.shape}, {beta.shape}")


def _normalize(x: np.ndarray, eps: float):
    """(xhat, mu, inv) over the last axis of x: the row means mu, the
    inverse standard deviations inv = 1 / sqrt(biased var + eps), and
    xhat = (x - mu) * inv. x is centred once and the variance is one
    contraction of the centred rows."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    var /= x.shape[-1]
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return xhat, mu, inv


def _xhat(x: np.ndarray, mu: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """xhat = (x - mu) * inv, rebuilt by a VJP from the kept row statistics."""
    xhat = x - mu
    xhat *= inv
    return xhat


def _affine(xhat: np.ndarray, gamma: Tensor, beta: Tensor) -> np.ndarray:
    """xhat * gamma + beta, in place in xhat."""
    xhat *= gamma.data
    xhat += beta.data
    return xhat


def _norm_vjp(xhat: np.ndarray, inv: np.ndarray, gamma: Tensor, g: np.ndarray,
              out: np.ndarray | None = None):
    """(dx, dgamma, dbeta) of layer norm for the output cotangent g, given
    the rebuilt xhat (overwritten) and inv, with dx written into `out` (a
    new array if None):
    dx = inv * (g gamma - mean(g gamma) - xhat mean(g gamma xhat))."""
    c = xhat.shape[-1]
    g2 = g.reshape(-1, c)
    dgamma = np.einsum("ni,ni->i", g2, xhat.reshape(-1, c))
    dbeta = np.einsum("ni->i", g2)
    dx = np.multiply(g, gamma.data, out=out)
    m1 = np.einsum("...i->...", dx)[..., None]
    m1 /= c
    m2 = np.einsum("...i,...i->...", dx, xhat)[..., None]
    m2 /= c
    xhat *= m2
    dx -= xhat
    dx -= m1
    dx *= inv
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# the head

def head(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
         b2: Tensor) -> Tensor:
    """gelu(z @ w1 + b1) @ w2 + b2 for z, each sample's n rows of x [B,n,C]
    after layer_norm(gamma, beta), side by side: [B, n*C], so w1 is
    [n*C, hidden]. One tape node, which keeps the row statistics mu and
    inv; the GELU is written over h. Its VJP rebuilds the normalized rows
    and h, as block's does."""
    if x.ndim != 3:
        raise ShapeError(f"head needs x [B,n,C], got {x.shape}")
    _check_norm("head", x, gamma, beta)
    _check_mlp("head", x.shape[1] * x.shape[2], x, gamma, beta, w1, b1, w2, b2)
    xhat, mu, inv = _normalize(x.data, LAYER_NORM_EPS)
    out = _mlp_forward(_affine(xhat, gamma, beta).reshape(x.shape[0], -1), w1, b1, w2, b2)

    def vjp(g):
        gxn, *gw = _mlp_vjp(_affine(_xhat(x.data, mu, inv), gamma, beta).reshape(x.shape[0], -1),
                            g, w1, b1, w2)
        return *_norm_vjp(_xhat(x.data, mu, inv), inv, gamma, gxn.reshape(x.shape)), *gw

    return _make(out, (x, gamma, beta, w1, b1, w2, b2), vjp)


# ---------------------------------------------------------------------------
# the block: two residual branches, x + mask * branch(layer_norm(x)), as one op

def _chunks(count: int, item_bytes: int, lanes: int = 1) -> list[slice]:
    """[0, count) cut into the fewest slices whose items, of `item_bytes`
    each, fill at most _CHUNK / lanes bytes (one item at least), their
    number rounded up to a multiple of `lanes` but at most `count`, and
    their sizes differing by at most one, so no chunk is tiny; one empty
    slice if count is 0."""
    pieces = max(1, -(-count // max(1, _CHUNK // lanes // item_bytes)))
    pieces = min(-(-pieces // lanes) * lanes, max(count, 1))
    bounds = [count * i // pieces for i in range(pieces + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _each_chunk(fn, chunks: list[slice]):
    """fn(i, sl) for each chunk sl, the i-th, yielded in chunk order: on
    this thread's lanes in rounds of LANES chunks if it has lanes, else
    inline. A round starts only once the caller has taken every result of
    the rounds before it, so the chunk that leads a round may act on them."""
    run = getattr(_tls, "lanes", None) or map
    for i in range(0, len(chunks), LANES):
        yield from run(fn, range(i, i + LANES), chunks[i:i + LANES])


def _mask_like(mask: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    """`mask`, a constant that broadcasts against an array of `shape`, as a
    read-only view of that shape but for the last axis, which keeps the
    mask's own extent (1 or C): a chunk of the array's rows slices it."""
    if mask is None:
        return None
    return np.broadcast_to(mask, (*shape[:-1], np.shape(mask)[-1] if np.ndim(mask) else 1))


def _add_chunk(sums: list[np.ndarray] | None, parts) -> list[np.ndarray]:
    """The parameter cotangents summed over chunks in chunk order: the first
    chunk's own arrays, then each later chunk's added in place."""
    if sums is None:
        return list(parts)
    for total, part in zip(sums, parts):
        total += part
    return sums


def _residual(x: np.ndarray, y: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """x + y * mask (x + y if mask is None), in place in the branch output y,
    a C-contiguous array the size of x (the attention branch passes the rows
    it returns)."""
    y = y.reshape(x.shape)
    if mask is not None:
        y *= mask
    y += x
    return y


def _residual_vjp(xhat: np.ndarray, inv: np.ndarray, gamma: Tensor, gxn: np.ndarray,
                  g: np.ndarray, out: np.ndarray | None = None):
    """(dx, dgamma, dbeta) of x + branch(layer_norm(x)) for the cotangent g
    of the sum, given the cotangent gxn of the normalized input, with dx
    written into `out` (a new array if None): layer norm's VJP, plus g along
    the residual, onto the leading part of dx that g spans (each sample's
    first rows for the attention branch of a block that returns fewer rows;
    all of dx else)."""
    dx, dgamma, dbeta = _norm_vjp(xhat, inv, gamma, gxn, out)
    dx[tuple(slice(k) for k in g.shape)] += g
    return dx, dgamma, dbeta


def _project(xn: np.ndarray, proj) -> tuple[np.ndarray, np.ndarray]:
    """(first, out) for rows xn [N,C] through one projection's weights:
    first = xn @ w, which is also out, for a full projection (w,), or
    first = xn @ down and out = first @ up for a latent one (down, up). The
    forward and the VJP both call it, so the VJP's are the forward's bit for
    bit."""
    first = xn @ proj[0].data
    return first, first if len(proj) == 1 else first @ proj[1].data


def _project_vjp(xn: np.ndarray, proj, first: np.ndarray, g: np.ndarray):
    """(d xn, weight cotangents) of _project for the cotangent g of its out."""
    if len(proj) == 2:
        gup = first.T @ g
        g = g @ proj[1].data.T
        return g @ proj[0].data.T, (xn.T @ g, gup)
    return g @ proj[0].data.T, (xn.T @ g,)


def _attention_weights(qs: np.ndarray, kh: np.ndarray, m: np.ndarray, l: np.ndarray,
                       rebuild: bool = False) -> np.ndarray:
    """P = softmax(qs k^T) over the keys for the scaled per-head q `qs` and k
    [n,h,S,d], as exp(qs k^T - m) / l with each row's max m and sum of
    exponentials l [n,h,S,1]. The forward writes m and l; a VJP (rebuild)
    reads them and rebuilds P with the forward's operations, bit for bit."""
    p = qs @ kh.swapaxes(-1, -2)
    if not rebuild:
        p.max(axis=-1, keepdims=True, out=m)
    p -= m
    np.exp(p, out=p)
    if not rebuild:
        p.sum(axis=-1, keepdims=True, out=l)
    p /= l
    return p


def _softmax_vjp(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The cotangent P * (dP - rowsum(dP * P)) of the softmax inputs whose
    rows P are, for the cotangent dP of P, in place in dP."""
    dp -= np.einsum("...ij,...ij->...i", dp, p)[..., None]
    dp *= p
    return dp


def _check_attention(x: Tensor, projections, wo: Tensor, heads: int) -> None:
    c = x.shape[-1]
    if not (x.ndim == 3 and heads >= 1 and c % heads == 0 and len(projections) == 3
            and wo.shape == (c, c) and all(
                len(p) == 1 and p[0].shape == (c, c)
                or len(p) == 2 and p[0].ndim == 2 and p[0].shape[0] == c
                and p[1].shape == (p[0].shape[1], c) for p in projections)):
        raise ShapeError(f"block needs x [B,S,C] with C divisible by {heads} heads, "
                         f"q, k and v each (w [C,C],) or (down [C,d_c], up [d_c,C]), and wo [C,C], "
                         f"got x {x.shape}, q/k/v {[[t.shape for t in p] for p in projections]}, "
                         f"wo {wo.shape}")


def block(x: Tensor, attention, ffn, heads: int, masks=(None, None),
          rows: int | None = None) -> Tensor:
    """A pre-norm transformer block for each sample's first `rows` query
    rows (all S if None), [B,rows,C], as one tape node: the attention branch
    mid = x + mask1 * (attention(layer_norm(x, gamma1, beta1)) @ wo), then
    the FFN branch mid + mask2 * mlp(layer_norm(mid, gamma2, beta2), w1, b1,
    w2, b2), on the rows returned.

    `attention` is (gamma1, beta1, projections, wo), where `projections`
    holds q's, k's and v's weights, each (w,) for a full [C,C] projection or
    (down, up) for a latent one, [C,d_c] then [d_c,C]; `ffn` is (gamma2,
    beta2, w1, b1, w2, b2). Each projection runs on its own (_project): q
    over each sample's first `rows` rows of the normalized input, k and v
    over all S. Attention is softmax(q k^T / sqrt(d)) v per head, with C
    split into `heads` heads of d channels; the head split and merge are
    views. So q, the softmax, P v, the wo GEMM and the FFN cover only the
    rows returned, which is all a CLS-only readout of the last block needs.
    `masks` are the two branches' constants that broadcast against the
    output, such as drop-path masks [B,1,1]; None means 1.

    Attention mixes rows only within a sample, so the forward runs each
    chunk of samples through both branches, each chunk with at most _CHUNK
    bytes of h or of q, k and v, whichever is larger (_chunks); within a
    chunk the attention core runs over sub-chunks of samples whose P is
    about _ATTENTION_CHUNK bytes, so only one sub-chunk's P is alive at a
    time. The node keeps x, mid, both layer norms' row statistics mu and
    inv, and the softmax's row max m and sum l ([B,h,rows,1], 1/S of P).
    The VJP walks the same chunks, each chunk's FFN half and then its
    attention half, and rebuilds every other array with the forward's
    operations, bit for bit: the normalized inputs, h (the GELU is written
    over it) and Phi(h), q, k, v (with any latent's first stage) and, sub-
    chunk by sub-chunk, P and P v. It runs the FlashAttention backward
    algebra: dV = P^T g, dP = g V^T, dS = P * (dP - rowsum(dP * P)) /
    sqrt(d), dQ = dS K, dK = dS^T Q. The normalized input's cotangent sums
    the three projections' (_project_vjp), one at a time, q's on the rows it
    read. A chunk's FFN half reads the last of mid's rows before its
    attention half writes dx's, so where the two have one shape dx takes
    mid's buffer: the VJP runs once. Only the parameter cotangents span
    chunks, summed in chunk order. With lanes (see `lanes`) the chunks are
    the lanes' and run LANES at a time. At the paper recipe's batch 32 the
    node keeps 0.2 MB beyond x and mid, where q, k, v, P and h would take
    17.7 MB, and its VJP allocates 10.6 MB, 12.7 MB at batch 128, and 12.2
    and 13.6 MB on the lanes (the whole batch took 19.6 and 72.3 MB).
    """
    gamma1, beta1, projections, wo = attention
    gamma2, beta2, w1, b1, w2, b2 = ffn
    _check_norm("block", x, gamma1, beta1)
    _check_attention(x, projections, wo, heads)
    _check_norm("block", x, gamma2, beta2)
    _check_mlp("block", x.shape[-1], x, gamma2, beta2, w1, b1, w2, b2)
    if w2.shape[1:] != x.shape[-1:]:
        raise ShapeError(f"block's residual needs w2 [hidden, C] for x [B,S,C], "
                         f"got {w2.shape} and {x.shape}")
    inputs = (x, gamma1, beta1, *(t for proj in projections for t in proj), wo, *ffn)
    b, s, c = x.shape
    n = s if rows is None else rows
    if not 1 <= n <= s:
        raise ShapeError(f"block returns 1 <= rows <= S query rows, got {x.shape} and rows={n}")
    d = c // heads
    scale = x.dtype.type(1.0 / np.sqrt(d))
    mask1, mask2 = (_mask_like(mask, (b, n, c)) for mask in masks)
    # by a sample's h or its q, k and v; the lanes' partition if this thread has lanes
    chunks = _chunks(b, max(n * w1.shape[1], (n + 2 * s) * c) * x.dtype.itemsize,
                     1 if getattr(_tls, "lanes", None) is None else LANES)
    step = max(1, _ATTENTION_CHUNK // (heads * n * s * x.dtype.itemsize))

    def split(a: np.ndarray, k: int) -> np.ndarray:   # [k*count,C] -> [k,h,count,d]
        return a.reshape(k, -1, heads, d).transpose(0, 2, 1, 3)

    def sources(xn: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
        # q's, k's and v's input rows: each sample's first n rows of xn [k*S,C], then all of xn
        return xn.reshape(k, s, c)[:, :n].reshape(-1, c), xn, xn

    def weights(qh, kh, sl: slice, k: int, rebuild: bool = False):
        # (samples, P) of each sub-chunk of chunk sl, from its q (scaled here) and k
        for lo in range(0, k, step):
            sub = slice(lo, lo + step)
            yield sub, _attention_weights(qh[sub] * scale, kh[sub], m[sl][sub], l[sl][sub],
                                          rebuild)

    def sliced(mask: np.ndarray | None, sl: slice) -> np.ndarray | None:
        return None if mask is None else mask[sl]

    out, mid = (np.empty((b, n, c), x.dtype) for _ in range(2))   # apart: out outlives mid
    mu1, inv1 = np.empty((2, b, s, 1), x.dtype)
    mu2, inv2 = np.empty((2, b, n, 1), x.dtype)
    m, l = np.empty((2, b, heads, n, 1), x.dtype)

    def forward(_: int, sl: slice) -> None:
        k = sl.stop - sl.start
        xhat, mu1[sl], inv1[sl] = _normalize(x.data[sl], LAYER_NORM_EPS)
        xs = sources(_affine(xhat, gamma1, beta1).reshape(-1, c), k)
        qh, kh, vh = (split(_project(xr, proj)[1], k) for xr, proj in zip(xs, projections))
        del xhat, xs
        ctx = np.empty((k * n, c), x.dtype)
        for sub, p in weights(qh, kh, sl, k):
            np.matmul(p, vh[sub], out=split(ctx, k)[sub])
            del p     # before the next sub-chunk's
        del qh, kh, vh
        _residual(x.data[sl, :n], np.matmul(ctx, wo.data, out=mid[sl].reshape(-1, c)),
                  sliced(mask1, sl))
        del ctx
        xhat, mu2[sl], inv2[sl] = _normalize(mid[sl], LAYER_NORM_EPS)
        _residual(mid[sl], _mlp_forward(_affine(xhat, gamma2, beta2).reshape(-1, c), w1, b1, w2, b2,
                                        out[sl].reshape(-1, c)), sliced(mask2, sl))

    list(_each_chunk(forward, chunks))

    def vjp(g):
        dx = mid if n == s else np.empty_like(x.data)
        sums = [None, None]   # the attention's and the FFN's parameter cotangents, in chunk order

        def settle(i: int, part: int, grads):
            # a chunk that leads its round adds its cotangents now, as every earlier
            # chunk's are in (see _each_chunk), rather than hold them; the others
            # hand theirs back, to be added after it
            if i % LANES:
                return grads
            sums[part] = _add_chunk(sums[part], grads)
            return None

        def chunk(i: int, sl: slice):   # writes dx[sl]
            k, xb, mb, gb = sl.stop - sl.start, x.data[sl], mid[sl], g[sl]
            # the FFN half: gb becomes the cotangent of mid's rows
            gxn, *gffn = _mlp_vjp(_affine(_xhat(mb, mu2[sl], inv2[sl]), gamma2, beta2).reshape(-1, c),
                                  gb if mask2 is None else gb * mask2[sl], w1, b1, w2)
            gb, *gnorm2 = _residual_vjp(_xhat(mb, mu2[sl], inv2[sl]), inv2[sl], gamma2,
                                        gxn.reshape(mb.shape), gb)
            gffn = settle(i, 1, (*gnorm2, *gffn))
            del mb, gxn, gnorm2
            # the attention half
            gy = (gb if mask1 is None else gb * mask1[sl]).reshape(-1, c)
            xs = sources(_affine(_xhat(xb, mu1[sl], inv1[sl]), gamma1, beta1).reshape(-1, c), k)
            projected = [_project(xr, proj) for xr, proj in zip(xs, projections)]
            qh, kh, vh = (split(y, k) for _, y in projected)
            go = split(gy @ wo.data.T, k)
            ctx = np.empty((k * n, c), x.dtype)
            gq, gk, gv = (np.empty((k * count, c), x.dtype) for count in (n, s, s))
            for sub, p in weights(qh, kh, sl, k, rebuild=True):
                np.matmul(p, vh[sub], out=split(ctx, k)[sub])
                np.matmul(p.swapaxes(-1, -2), go[sub], out=split(gv, k)[sub])
                ds = _softmax_vjp(go[sub] @ vh[sub].swapaxes(-1, -2), p)      # sqrt(d) dS
                np.matmul(ds, kh[sub], out=split(gq, k)[sub])
                np.matmul(ds.swapaxes(-1, -2), qh[sub], out=split(gk, k)[sub])
                del p, ds     # before the next sub-chunk's
            del qh, kh, vh, go
            gwo = ctx.T @ gy
            del ctx
            gq *= scale
            gk *= scale
            # each projection's input cotangent in turn, q's onto each sample's first n rows
            gxn, gprojections = np.zeros_like(xb), []
            for xr, proj, gt in zip(xs, projections, [gq, gk, gv]):
                gx, gw = _project_vjp(xr, proj, projected.pop(0)[0], gt)
                gxn[:, :len(xr) // k] += gx.reshape(k, -1, c)
                gprojections += gw
            del xs, gq, gk, gv, gt, gx
            _, *gnorm1 = _residual_vjp(_xhat(xb, mu1[sl], inv1[sl]), inv1[sl], gamma1, gxn, gb, dx[sl])
            return settle(i, 0, (*gnorm1, *gprojections, gwo)), gffn

        for parts in _each_chunk(chunk, chunks):
            for part, grads in enumerate(parts):
                if grads is not None:
                    sums[part] = _add_chunk(sums[part], grads)
        return dx, *sums[0], *sums[1]

    return _make(out, inputs, vjp)


# ---------------------------------------------------------------------------
# loss

def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -sum(targets * log_softmax(logits)).

    `targets` rows must be probability distributions (soft labels from
    MixUp / CutMix / smoothing are the normal case): a row with a negative
    or NaN entry, or that does not sum to 1 within 1e-5, is refused by index.
    """
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    if logits.ndim != 2 or t.shape != logits.shape:
        raise ShapeError(f"cross_entropy expects matching B x C, got {logits.shape} and {t.shape}")
    bad = ~(t >= 0).all(axis=-1)   # NaN fails >= 0
    if bad.any():
        raise ValueError(f"cross_entropy target row {int(np.argmax(bad))} has an entry that is "
                         f"negative or NaN: {t[bad][0]!r}")
    sums = t.sum(axis=-1)
    bad = np.abs(sums - 1.0) > 1e-5
    if bad.any():
        raise ValueError(f"cross_entropy target row {int(np.argmax(bad))} sums to {sums[bad][0]!r}, not 1")
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    n = x.shape[0]
    data = np.asarray(-(t * logp).sum() / n, dtype=x.dtype)

    def vjp(g):
        p = np.exp(logp)
        return ((p - t) * (g / n),)

    return _make(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward and gradient checking

def backward(loss: Tensor, tape: Tape, wrt) -> list[np.ndarray]:
    """d loss / d t for each t in `wrt`, in order; zeros where the loss does
    not reach t. Pops the nodes in reverse, leaving the tape empty: a node's
    output is dropped before its VJP runs (only its identity keys its
    cotangent), so it is freed then unless the caller holds it, and the rest
    of the node, with the output's cotangent, once the VJP has run. A VJP may
    return one array for two inputs, or a view, so cotangents are summed out
    of place; the returned arrays may share memory: treat them as read-only."""
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = tape._nodes
    if not any(out is loss for out, _, _ in nodes):
        raise GraphError("loss tensor was not produced under this tape")
    cotangents = {id(loss): np.ones_like(loss.data)}   # keyed by tensor identity
    while nodes:
        out, inputs, vjp = nodes.pop()
        g = cotangents.pop(id(out), None)
        del out
        if g is not None:
            _accumulate(cotangents, inputs, vjp(g))
    return [cotangents.get(id(t), np.zeros_like(t.data)) for t in wrt]


def _accumulate(cotangents: dict, inputs: tuple[Tensor, ...], grads) -> None:
    """Add a VJP's per-input cotangents into `cotangents`, out of place. Its
    own frame holds the inputs and the summands, so none outlives it."""
    for t, gt in zip(inputs, grads):
        if t.requires_grad and gt is not None:
            prev = cotangents.get(id(t))
            cotangents[id(t)] = gt if prev is None else prev + gt


def grad_check(f, params: list[Tensor], h: float = 1e-5,
               max_coords: int | None = None, rng=None) -> float:
    """Max relative error between tape gradients and central differences.

    `f` must be a deterministic closure over `params` returning a scalar
    Tensor; parameters should be float64. With `max_coords`, a random subset
    of coordinates per parameter is probed (for large models).

    A central difference (f(p + h) - f(p - h)) / 2h carries rounding of
    about eps |f| / h, eps the machine epsilon of the parameter's dtype, so
    a coordinate's error counts only the part of |analytic - numeric| above
    that floor, relative to max(|analytic|, |numeric|, 1e-8). Without the
    floor, a gradient coordinate near zero turns rounding into a large
    relative error. The floor leaves out the central difference's
    truncation error, about h^2 |f'''| / 6, so a coordinate whose true
    gradient is near 1e-6 can read above 1e-4 on a correct VJP.
    """
    if h <= 0:
        raise ValueError("grad_check h must be positive")
    with Tape() as tape:
        loss = f()
    analytic = backward(loss, tape, params)
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p, ga in zip(params, analytic):
        n = p.size
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        eps = float(np.finfo(p.dtype).eps)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(gflat[i])
            rounding = eps * max(abs(fp), abs(fm)) / h
            rel = max(abs(a - numeric) - rounding, 0.0) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
