"""Pinned elementwise transcendentals for the bit-reproducible forward pass.

Platform libm routines (and numpy's vectorized wrappers around them) may
round exp/tanh differently between builds, and even between SIMD and
scalar tails of the same array. Everything here is built from IEEE-754
binary32 add/mul/div/sqrt and integer bit manipulation only, so results
are a pure function of the input bits.

What is pinned is what reaches a twin, a tap or a frame: exp (the attention
softmax and the cross-entropy's softmax, whose output is the gradient the
fine-tune applies), tanh, and through it gelu and gelu_grad (the MLP
forward and backward). A value nothing else is computed from is not pinned:
the reported training loss takes numpy's float64 log.

float64 arrays take the numpy fallback path: the double-precision route
exists only for finite-difference gradient probes, where accuracy matters
and bit-pinning does not.
"""

from __future__ import annotations

import numpy as np

F32 = np.float32

_INV_LN2 = F32(1.4426950408889634)
_LN2_HI = F32(6.9313812256e-01)
_LN2_LO = F32(9.0580006145e-06)

# exp(x) overflows float32 above this, underflows to zero below the second.
_EXP_HI = F32(88.722839)
_EXP_LO = F32(-87.336544)

# Horner coefficients of exp's Taylor polynomial after the leading 1/5040,
# down to the r^1 term; the constant term 1 is added last.
_EXP_HORNER = tuple(F32(1.0) / F32(n) for n in (720.0, 120.0, 24.0, 6.0)) + (
    F32(0.5), F32(1.0))

# exp runs its ~20 passes block by block, on scratch arrays of one block;
# float32 gelu and gelu_grad run in the same blocks. Blocks of 32768 were
# the fastest of 8192..65536 when decode ran exp on 257-item batches. Now
# the fine-tune makes the calls that span many blocks. On a 2-core Xeon, in
# 10 alternating runs of the benchmark's two-party set-up (two provisions
# on two threads), 131072 elements took 8.79 s (median) against 10.13 s at
# 32768 and won all 10, with 1.00 s of system time against 1.36 s but 341k
# minor faults against 257k; one adapter step's tracemalloc peak rose from
# 37.6 to 38.9 MiB.
_EXP_BLOCK = 131072

# |tanh(x)| rounds to 1.0f beyond this.
_TANH_SAT = F32(9.010913)

_GELU_C0 = F32(0.7978845608)
_GELU_C1 = F32(0.044715)


def _check_dtype(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        raise TypeError(f"expected float32/float64 array, got {x.dtype}")
    return x


def exp(x: np.ndarray) -> np.ndarray:
    """Pinned exp for float32; numpy exp for float64."""
    x = _check_dtype(x)
    if x.dtype == np.float64:
        return np.exp(x)

    out = np.empty(x.shape, dtype=F32)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    n = flat_x.size
    m = min(n, _EXP_BLOCK)
    k, r, ki, hit = np.empty(m, F32), np.empty(m, F32), np.empty(m, np.int32), np.empty(m, bool)
    for lo in range(0, n, max(m, 1)):
        hi = min(lo + m, n)
        _exp_block(flat_x[lo:hi], flat_out[lo:hi], k[:hi - lo], r[:hi - lo],
                   ki[:hi - lo], hit[:hi - lo])
    return out


def _exp_block(x, out, k, r, ki, hit) -> None:
    """out = exp(x) for one block, through the scratch buffers k, r, ki and
    the bool buffer hit.

    Every step writes in place; the binary32 operations and their order are
    those of r = (xc - k*LN2_HI) - k*LN2_LO, p = ((c7*r + c6)*r + ...)*r + 1.
    """
    # clamp first so the polynomial never sees huge arguments (e.g. mask fill)
    xc = np.clip(x, _EXP_LO, F32(88.72283), out=out)
    np.multiply(xc, _INV_LN2, out=k)
    np.rint(k, out=k)
    np.clip(k, F32(-126.0), F32(127.0), out=k)
    np.multiply(k, _LN2_HI, out=r)
    np.subtract(xc, r, out=r)
    np.multiply(k, _LN2_LO, out=xc)
    np.subtract(r, xc, out=r)
    # degree-7 Taylor polynomial of exp on |r| <= ~0.35, Horner order pinned
    p = np.multiply(r, F32(1.0) / F32(5040.0), out=out)
    for c in _EXP_HORNER:
        p += c
        p *= r
    p += F32(1.0)
    # scale by 2**k through the exponent field
    np.copyto(ki, k, casting="unsafe")
    ki += 127
    ki <<= 23
    p *= ki.view(np.float32)
    np.copyto(p, F32(0.0), where=np.less_equal(x, _EXP_LO, out=hit))
    np.copyto(p, F32(np.inf), where=np.greater_equal(x, _EXP_HI, out=hit))


def tanh(x: np.ndarray) -> np.ndarray:
    """Pinned tanh for float32 via exp; numpy tanh for float64."""
    x = _check_dtype(x)
    if x.dtype == np.float64:
        return np.tanh(x)

    a = np.abs(x, out=np.empty(x.shape, F32))
    np.negative(a, out=a)
    mag = np.add(a, a, out=np.empty(x.shape, F32))
    e = exp(mag)
    np.subtract(F32(1.0), e, out=mag)
    np.divide(mag, np.add(F32(1.0), e, out=e), out=mag)
    np.copyto(mag, F32(1.0), where=a <= -_TANH_SAT)
    # -mag where x < 0, as a sign-bit flip: the same bits as
    # np.where(x < 0, -mag, mag), NaNs included, at a fifth of the time
    flip = (x < 0).astype(np.uint32)
    flip <<= 31
    return (mag.view(np.uint32) ^ flip).view(np.float32)


def gelu(x: np.ndarray, *, return_tanh: bool = False):
    """tanh-form GELU, 0.5*x*(1 + tanh(0.7978845608*(x + 0.044715*x^3))).

    With return_tanh, returns (gelu(x), t) with t the tanh of the inner
    polynomial, which gelu_grad takes in place of a second tanh. float32
    runs in _EXP_BLOCK-element blocks, so that every temporary of a block
    stays in cache from the cube through tanh to the product; float64 runs
    as one block, so that its t has the bits of numpy's tanh over the whole
    array, which may round a block's tail otherwise.
    """
    x = _check_dtype(x)
    out = np.empty(x.shape, dtype=x.dtype)
    t = np.empty(x.shape, dtype=x.dtype) if return_tanh else None
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    block = _EXP_BLOCK if x.dtype == np.float32 else max(flat_x.size, 1)
    c0, c1 = x.dtype.type(_GELU_C0), x.dtype.type(_GELU_C1)
    half, one = x.dtype.type(0.5), x.dtype.type(1.0)
    for lo in range(0, flat_x.size, block):
        xb = flat_x[lo:lo + block]
        p = xb * xb  # c0 * (x + c1 * x^3), built in place
        p *= xb
        p *= c1
        p += xb
        p *= c0
        tb = tanh(p)
        np.multiply(half * xb, one + tb, out=flat_out[lo:lo + block])
        if return_tanh:
            t.reshape(-1)[lo:lo + block] = tb
    return (out, t) if return_tanh else out


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d/dx of gelu(x), from t, the tanh gelu(x, return_tanh=True) returned
    for this x; no tanh runs here. The product runs in _EXP_BLOCK-element
    blocks, as gelu's does.
    """
    x = _check_dtype(x)
    if t.shape != x.shape or t.dtype != x.dtype:
        raise ValueError("t must match x in shape and dtype")
    c0 = x.dtype.type(_GELU_C0)
    c1 = x.dtype.type(_GELU_C1)
    half = x.dtype.type(0.5)
    one = x.dtype.type(1.0)
    three = x.dtype.type(3.0)
    out = np.empty(x.shape, dtype=x.dtype)
    flat_x, flat_t, flat_out = x.reshape(-1), t.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_x.size, _EXP_BLOCK):
        xb, tb = flat_x[lo:lo + _EXP_BLOCK], flat_t[lo:lo + _EXP_BLOCK]
        dinner = c0 * (one + three * c1 * (xb * xb))
        flat_out[lo:lo + _EXP_BLOCK] = half * (one + tb) + half * xb * (one - tb * tb) * dinner
    return out
