"""Deterministic numeric primitives shared by every stage of the pipeline.

Everything here is pure and reentrant: cosine similarity, a numerically safe
softmax, seeded Gaussian sampling with independent substreams, and a central
finite-difference gradient oracle used to verify hand-written backward passes.

All accumulation is double precision. Randomness flows through :class:`SeededRng`,
which couples a 64-bit seed with a 64-bit stream id; distinct stream ids give
independent substreams and identical (seed, stream) pairs replay bit-exactly.
"""

from __future__ import annotations

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
    stream (interleaved cos/sin halves), so that a draw of n values
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
    have even length. A row of a stacked draw maps to exactly the bits that
    :meth:`SeededRng.standard_normal` gives for that row's stream, because
    log, cos and sin always see contiguous inputs. ``out`` may be ``u``
    itself: every uniform is read before the first normal is written.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or u.shape[-1] % 2:
        raise ContractViolation(f"Box-Muller wants an even-length last axis, got {u.shape}")
    if out is None:
        out = np.empty_like(u)
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))  # 1 - u in (0, 1]: keeps log() finite
    ang = 2.0 * np.pi * u[..., 1::2]
    np.multiply(r, np.cos(ang), out=out[..., 0::2])
    np.multiply(r, np.sin(ang), out=out[..., 1::2])
    return out


def substream(seed: int, *parts: int) -> SeededRng:
    """Rng on the substream keyed by the given id tuple."""
    return SeededRng(seed, stream_key(*parts))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 LCG multiplier; tests/test_core.py checks stacked_uniforms
# against SeededRng row by row, so a change on numpy's side fails there.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_WORDS = 4
_U32 = (1 << 32) - 1
_U128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_states(seed: int, streams: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of SeededRng(seed, s) for every u64 stream s.

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
    w0, w1, w2, w3 = (words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4))

    states = []
    for a, b, c, d in zip(w0.tolist(), w1.tolist(), w2.tolist(), w3.tolist()):
        inc = (((c << 64) | d) << 1 | 1) & _U128
        states.append((((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _U128, inc))
    return states


def stacked_uniforms(
    seed: int, parts: tuple[int, ...], count: int, width: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(count, width) uniforms whose row c is, bit for bit,
    substream(seed, *parts, c).uniform(width).

    The stream keys and seed hashes of all rows are computed in one
    vectorised pass, and every row is drawn on one reused generator set to
    that row's PCG64 state, instead of building count generators. ``out``
    must be a C-contiguous (count, width) float64 array.
    """
    count, width = int(count), int(width)
    if out is None:
        out = np.empty((count, width))
    if out.shape != (count, width) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ContractViolation(f"uniform buffer must be C-contiguous float64 ({count}, {width})")
    keys = np.full(count, stream_key(*parts), dtype=np.uint64)
    streams = _fold_part(keys, np.arange(count, dtype=np.uint64))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row, (state, inc) in zip(out, _pcg64_states(int(seed) & _U64, streams)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.random(out=row)
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Denominator carries a 1e-12 guard so degenerate zero vectors do not
    divide by zero (they return 0 instead of NaN).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractViolation(f"dimension mismatch: {a.shape} vs {b.shape}")
    s = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b) + NORM_GUARD))
    return float(min(1.0, max(-1.0, s)))


def softmax(logits: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Probability vector softmax(scale * logits), max-subtracted for stability."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("softmax requires a non-empty 1-d logit vector")
    z = scale * x
    e = np.exp(z - z.max())
    return e / e.sum()


# Coordinates whose +h and -h points one call of the oracle's callback
# evaluates together (the last block may hold fewer).
FD_BLOCK = 16


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h.

    f maps a (P, *x.shape) stack of points to their P values. The oracle
    hands it the points x + h e_i, then x - h e_i, of FD_BLOCK coordinates
    at a time, so one coordinate is the P = 2 case of the same call. f must
    be deterministic; every value is checked for finiteness. This routine
    stays independent of any analytic backward pass it verifies.
    """
    x = np.asarray(x, dtype=np.float64)
    if h <= 0:
        raise ContractViolation(f"step size must be positive, got {h}")
    grad = np.zeros(x.size)
    for start in range(0, x.size, FD_BLOCK):
        coords = np.arange(start, min(start + FD_BLOCK, x.size))
        b = coords.size
        points = np.tile(x.ravel(), (2 * b, 1))
        points[np.arange(b), coords] += h
        points[np.arange(b, 2 * b), coords] -= h
        values = np.asarray(f(points.reshape((2 * b,) + x.shape)), dtype=np.float64)
        if values.shape != (2 * b,):
            raise ContractViolation(f"callback gave {values.shape} values for {2 * b} points")
        fp, fm = values[:b], values[b:]
        bad = ~(np.isfinite(fp) & np.isfinite(fm))
        if np.any(bad):
            raise OracleFailure(f"non-finite evaluation at coordinate {coords[bad][0]}")
        grad[coords] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape)
