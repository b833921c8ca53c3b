"""Deterministic numeric primitives shared by every stage of the pipeline.

Everything here is pure and reentrant: seeded Gaussian sampling with
independent substreams (Box-Muller from one tangent per pair), and a central
finite-difference gradient oracle used to verify hand-written backward
passes. The one file writer, :func:`atomic_write`, is shared by every
artifact the package writes.

All accumulation is double precision. Randomness flows through :class:`SeededRng`,
which couples a 64-bit seed with a 64-bit stream id; distinct stream ids give
independent substreams and identical (seed, stream) pairs replay bit-exactly.
:func:`stream_uniforms` draws the uniforms of a whole run of substreams without
building their generators: it derives their PCG64 states in uint64 arrays and
writes them straight into one generator's C struct, whose layout a
once-per-process check guards. Sampled inference takes its normals from it
through :func:`grid_normals`, and corpus generation its pairs' rows;
:func:`stream_rngs` reseeds one :class:`SeededRng` from the same derivation,
which is how the training loop reaches each step's noise and dropout streams.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import numbers
import os

import numpy as np

# Zero-norm guard added to cosine denominators.
NORM_GUARD = 1e-12

_U64 = (1 << 64) - 1


class ContractViolation(ValueError):
    """An operation was called outside its documented preconditions."""


class DegenerateGeometryError(ContractViolation):
    """Geometric construction undefined for the given inputs (e.g. v == t)."""


class FormatError(IOError):
    """A serialized file is malformed; message names the failing byte offset."""


class OracleFailure(RuntimeError):
    """A verification oracle could not be evaluated (non-finite function value)."""


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_field_types(config) -> None:
    """Refuse, naming the key, a config dataclass field whose value is not of
    its default's type: a bool field wants a bool, an int field an integer
    that is not a bool, a float field a finite float or an integer a float
    holds exactly, a tuple field a tuple or list of integers, and any other
    field its default's type."""
    for f in dataclasses.fields(config):
        value, default = getattr(config, f.name), f.default
        if isinstance(default, bool):
            ok, want = isinstance(value, bool), "a bool"
        elif isinstance(default, int):
            ok, want = _is_integer(value), "an integer"
        elif isinstance(default, float):
            ok = isinstance(value, float) or _is_integer(value) and abs(value) <= 2**53
            want = "a float or an integer of at most 2**53"
        elif isinstance(default, tuple):
            ok = isinstance(value, (tuple, list)) and all(map(_is_integer, value))
            want = "a list of integers"
        else:
            ok, want = isinstance(value, type(default)), f"a {type(default).__name__}"
        if not ok:
            raise ContractViolation(f"config value {f.name} = {value!r} must be {want}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractViolation(f"config value {f.name} = {value!r} is not finite")


def check_seed(seed) -> None:
    """Refuse a seed that is not an integer in [0, 2**64), as a checkpoint stores it."""
    if not _is_integer(seed):
        raise ContractViolation(f"seed {seed!r} must be an integer")
    if not 0 <= seed < 2**64:
        raise ContractViolation("seed must lie in [0, 2**64)")


def check_finite(name: str, values) -> None:
    """Refuse, naming them, values that hold a NaN or an infinity."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ContractViolation(f"{name}: {bad} of {np.size(values)} values are non-finite")


def stream_key(*parts: int) -> int:
    """Fold integer ids into a single 64-bit stream id (splitmix64 per part).

    Used to derive one substream per logical consumer, e.g. per (epoch,) or
    per (query-id, candidate-id). Deterministic and order-sensitive.
    """
    h = 0
    for p in parts:
        h = _fold_part(h, int(p) & _U64)
    return h


def _fold_part(h, p):
    """One step of stream_key: fold part p into key h with the splitmix64
    finalizer. h and p are ints below 2**64 or uint64 arrays."""
    h = ((h ^ p) + 0x9E3779B97F4A7C15) & _U64
    z = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


class SeededRng:
    """Seeded random source with independent, replayable substreams.

    A (seed, stream) pair fully determines the sample sequence. Gaussian
    variates are produced by :func:`box_muller` on the underlying uniform
    stream (interleaved r cos a, r sin a halves), so that a draw of n values
    is always a prefix of a longer draw from the same state. Each call to
    :meth:`standard_normal` consumes ``2 * ceil(n / 2)`` uniform doubles.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _U64
        self.stream = int(stream) & _U64
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream]))
        )

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return self._gen.random(int(n))

    def standard_normal(self, n: int) -> np.ndarray:
        """n independent N(0, 1) draws via Box-Muller on the uniform stream."""
        n = int(n)
        if n < 1:
            raise ContractViolation(f"sample count must be >= 1, got {n}")
        return box_muller(self._gen.random(2 * ((n + 1) // 2)))[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of n uniforms."""
        return np.argsort(self.uniform(n), kind="stable")


def box_muller(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals from uniforms on [0, 1), pairwise along the last axis.

    Each pair (u[2k], u[2k+1]) gives z[2k] = r cos(a) and z[2k+1] = r sin(a)
    with r = sqrt(-2 log(1 - u[2k])) and a = 2 pi u[2k+1]; the last axis must
    have even length. Both come from one SIMD tangent of the half angle
    pi u[2k+1] (exactly half of the computed a, as float(2 pi) = 2 float(pi)):
    with t = tan(pi u[2k+1]) and w = 2r / (1 + t^2), z[2k] = w - r and
    z[2k+1] = t w, within a few ulps of r of the cos/sin form. A row of a
    stacked draw maps to exactly the bits that :meth:`SeededRng.standard_normal`
    gives for that row's stream, because log and tan run in place on fresh
    contiguous temporaries. ``out`` may be ``u`` itself: every uniform is
    read before the first normal is written.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or u.shape[-1] % 2:
        raise ContractViolation(f"Box-Muller wants an even-length last axis, got {u.shape}")
    if out is None:
        out = np.empty_like(u)
    r = 1.0 - u[..., 0::2]  # in (0, 1]: keeps log() finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = np.pi * u[..., 1::2]
    np.tan(t, out=t)  # finite: no double is pi/2
    w = t * t
    w += 1.0
    np.divide(r, w, out=w)
    w += w
    np.multiply(t, w, out=out[..., 1::2])
    np.subtract(w, r, out=out[..., 0::2])
    return out


def atomic_write(path, data: bytes) -> None:
    """Write data to path atomically: it goes to path + ".tmp", is fsynced
    and renamed over path, so a reader sees the old file or the complete
    new one, never a partial write. A failed write removes the temp file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def substream(seed: int, *parts: int) -> SeededRng:
    """Rng on the substream keyed by the given id tuple."""
    return SeededRng(seed, stream_key(*parts))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 LCG multiplier; tests/test_core.py checks grid_normals against
# SeededRng row by row, and _check_pcg64_layout checks one seeded state
# against numpy's own, so a change on numpy's side fails there.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_WORDS = 4
_U32 = (1 << 32) - 1
_PCG64_MULT_HI = 2549297995355413924
_PCG64_MULT_LO = 4865540595714422341

# Rows whose PCG64 states grid_normals derives in one pass (whole queries,
# at least one): bounds the transient hash arrays to about 0.6 MB.
STATE_BLOCK_ROWS = 2048


def _pcg64_states(seed: int, streams: np.ndarray) -> np.ndarray:
    """PCG64 state words of SeededRng(seed, s) for every u64 stream s: an
    (n, 4) C-contiguous uint64 array of state lo, state hi, inc lo, inc hi.

    SeedSequence([seed, s]) splits each int into u32 words, low word first
    (0 as one zero word), and hashes them into a pool of 4 words; the seed
    always leads and zero padding equals a short entropy list, so a stream
    is always its two words. Each row is then seeded as pcg64_srandom_r
    does from the pool's first 4 generated u64 words.
    """
    seed_words = [seed & _U32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(streams.shape, w, dtype=np.uint32) for w in seed_words]
    entropy += [(streams & _U32).astype(np.uint32), (streams >> 32).astype(np.uint32)]
    entropy += [np.zeros(streams.shape, dtype=np.uint32)] * (_POOL_WORDS - len(entropy))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _U32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst]
                mixed -= np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_WORDS):
        value = pool[i % _POOL_WORDS] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _U32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return _pcg64_srandom(*(words[2 * k] | (words[2 * k + 1] << 32) for k in range(4)))


def _pcg64_srandom(state_hi, state_lo, seq_hi, seq_lo) -> np.ndarray:
    """pcg64_srandom_r in uint64 limbs: from the u64 words of initstate and
    initseq, inc = initseq << 1 | 1 and state = (inc + initstate) * MULT +
    inc, mod 2**128, as (n, 4) words state lo, state hi, inc lo, inc hi.
    A low-word sum wrapped exactly when it is below an addend; the low
    product is formed from 32-bit halves, and the cross terms only reach
    the high word."""
    inc_lo = (seq_lo << 1) | 1
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    sum_lo = inc_lo + state_lo
    sum_hi = inc_hi + state_hi + (sum_lo < inc_lo)
    a_lo, a_hi = sum_lo & _U32, sum_lo >> 32
    b_lo, b_hi = _PCG64_MULT_LO & _U32, _PCG64_MULT_LO >> 32
    low, cross_a, cross_b = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (low >> 32) + (cross_a & _U32) + (cross_b & _U32)
    prod_lo = (mid << 32) | (low & _U32)
    prod_hi = a_hi * b_hi + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
    prod_hi += sum_hi * _PCG64_MULT_LO + sum_lo * _PCG64_MULT_HI
    out_lo = prod_lo + inc_lo
    out_hi = prod_hi + inc_hi + (out_lo < inc_lo)
    return np.stack([out_lo, out_hi, inc_lo, inc_hi], axis=1)


def _state_words(bitgen: np.random.PCG64) -> np.ndarray:
    """A (4,) uint64 view of bitgen's pcg64_random_t {state, inc}, which the
    pointer that leads the pcg64_state struct at bitgen.ctypes.state_address
    points to. It is valid while bitgen lives; writing it reseeds bitgen."""
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))


@functools.cache
def _check_pcg64_layout() -> None:
    """Check, once per process, that PCG64 state words written into the
    generator's C struct are the state numpy itself would seed.

    The struct layout is a numpy internal (on numpy 2.x with native 128-bit
    integers: state lo, state hi, inc lo, inc hi). It goes through the
    view that stream_uniforms writes (_state_words): one state is set
    through the public dict setter and read back through the view, and the
    words of _pcg64_states are written through the view and read back
    through the dict; both must agree with numpy's own seeding of the same
    stream. Raises ContractViolation naming the numpy version otherwise."""
    seed, stream = _U64, 0x0123456789ABCDEF
    words = _pcg64_states(seed, np.array([stream], dtype=np.uint64))
    want = np.random.PCG64(np.random.SeedSequence([seed, stream])).state
    probe = np.random.PCG64(0)
    view = _state_words(probe)
    probe.state = want
    read = view.copy()
    probe.state = np.random.PCG64(0).state
    view[...] = words[0]
    if not np.array_equal(read, words[0]) or probe.state["state"] != want["state"]:
        raise ContractViolation(
            f"numpy {np.__version__}: PCG64 state words {words[0].tolist()} do not round-trip "
            f"through the generator struct (it held {read.tolist()}); substream rows cannot be "
            "drawn, so training noise and dropout, sampled inference and corpus generation cannot run"
        )


def _stream_states(seed: int, parts: tuple[int, ...], ids: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(streams, states): the u64 ids stream_key(*parts, *index) of every
    index, in C order, of the broadcast of the integer arrays ids, and their
    PCG64 state words from one _pcg64_states pass. The first call checks
    the struct layout that the words are written through
    (_check_pcg64_layout)."""
    _check_pcg64_layout()
    streams = stream_key(*parts)
    for part in ids:
        streams = _fold_part(streams, np.asarray(part, dtype=np.uint64))
    streams = np.ravel(streams)
    return streams, _pcg64_states(int(seed) & _U64, streams)


def stream_uniforms(seed: int, parts: tuple[int, ...], ids: tuple, out: np.ndarray):
    """Yield out's leading rows, refilled len(out) rows at a time: row r of
    the whole run is SeededRng(seed, stream_key(*parts, *index)).uniform(
    out.shape[1]) bit for bit, index the r-th entry (C order) of the
    broadcast of the integer arrays ids. All states are derived in one pass
    (_stream_states); one generator draws every row, its state words
    assigned through a numpy view (_state_words)."""
    _, states = _stream_states(seed, parts, ids)
    bitgen = np.random.PCG64(0)
    view, draw = _state_words(bitgen), np.random.Generator(bitgen).random
    for first in range(0, len(states), max(len(out), 1)):
        block = states[first : first + len(out)]
        for words, row in zip(block, out):
            view[...] = words
            draw(out=row)
        yield out[: len(block)]


def stream_rngs(seed: int, parts: tuple[int, ...], ids):
    """For each entry of the integer array ids, in C order, yield a
    SeededRng that draws, bit for bit, what substream(seed, *parts, id)
    draws. Every yield is the same generator, reseeded in place: use it up
    before taking the next. Its states come from one _stream_states pass
    and are written through _state_words, so no SeedSequence is built per
    id."""
    streams, states = _stream_states(seed, parts, (ids,))
    rng = SeededRng(seed)
    view = _state_words(rng._gen.bit_generator)
    for stream, words in zip(streams, states):
        view[...] = words
        rng.stream = int(stream)
        yield rng


def grid_normals(seed: int, parts: tuple[int, ...], q_count: int, c_count: int, n: int):
    """For q = 0, ..., q_count - 1 yield a (c_count, n) array whose row c
    is, bit for bit, substream(seed, *parts, q, c).standard_normal(n).

    Every yield views the same buffer, refilled: read or rewrite it before
    taking the next. The states of a block of about STATE_BLOCK_ROWS rows
    (whole queries, at least one) are derived in one pass of
    stream_uniforms, which draws each row's 2 * ceil(n / 2) uniforms into
    the buffer; box_muller turns them into normals in place. Raises
    ContractViolation if n < 1.
    """
    q_count, c_count, n = int(q_count), int(c_count), int(n)
    if n < 1:
        raise ContractViolation(f"sample count must be >= 1, got {n}")
    out = np.empty((c_count, 2 * ((n + 1) // 2)))
    per_block = max(1, STATE_BLOCK_ROWS // max(c_count, 1))
    for first in range(0, q_count, per_block):
        queries = np.arange(first, min(first + per_block, q_count))
        for rows in stream_uniforms(seed, parts, (queries[:, None], np.arange(c_count)), out):
            yield box_muller(rows, out=rows)[:, :n]


def row_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sums along the last axis of a, or dots of a and b (broadcast against
    each other) along it: the one kernel of every last-axis sum and dot of
    the batched stages, an unoptimized np.einsum. It sums each row on its
    own, in one order whatever is stacked beside it, so a row's sum, dot or
    norm has the same bits alone as in a stack or behind a copy axis. Its
    roundoff differs from np.add.reduce's by about an ulp of the summed
    magnitudes; a reduce along a short last axis runs its inner loop once
    per row, which on the stages' axes of 4 to 32 costs a few times more."""
    if b is None:
        return np.einsum("...i->...", a)
    return np.einsum("...i,...i->...", a, b)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, through `row_sums`."""
    return np.sqrt(row_sums(x, x))


def row_max(x: np.ndarray) -> np.ndarray:
    """Largest entry along the last axis, `np.max(x, axis=-1)` bit for bit
    (NaN propagates): a running np.maximum over the last axis' slices. A
    reduce along a short last axis runs numpy's inner loop once per row;
    each slice here is one whole-array call."""
    out = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        np.maximum(out, x[..., i], out=out)
    return out


# Coordinates whose +h and -h points one call of the oracle's callback
# evaluates together (the last block may hold fewer).
FD_BLOCK = 32


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h.

    The oracle walks the flat coordinates of x in blocks of FD_BLOCK (the
    last may hold fewer). For a block of b coordinates from flat index start
    it calls f(points), where points is the (2b, x.size) stack of the
    block's 2b points, each a whole flat copy of x: row i adds +h and row
    b + i adds -h at coordinate start + i. f gives the 2b values, so one
    coordinate is the b = 1 case of the same call. f must be deterministic;
    every value is checked for finiteness. This routine stays independent
    of any analytic backward pass it verifies.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0 < h < np.inf:
        raise ContractViolation(f"step size must be positive and finite, got {h}")
    flat = x.ravel()
    grad = np.zeros(x.size)
    for start in range(0, x.size, FD_BLOCK):
        b = min(FD_BLOCK, x.size - start)
        points = np.repeat(flat[None], 2 * b, axis=0)
        diagonal = np.arange(b)
        points[diagonal, start + diagonal] += h
        points[diagonal + b, start + diagonal] -= h
        values = np.asarray(f(points), dtype=np.float64)
        if values.shape != (2 * b,):
            raise ContractViolation(f"callback gave {values.shape} values for {2 * b} points")
        if not np.isfinite(values).all():
            bad = ~np.isfinite(values).reshape(2, b).all(axis=0)
            raise OracleFailure(f"non-finite evaluation at coordinate {start + np.flatnonzero(bad)[0]}")
        grad[start : start + b] = (values[:b] - values[b:]) / (2.0 * h)
    return grad.reshape(x.shape)
