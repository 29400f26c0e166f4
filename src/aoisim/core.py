"""Shared domain types, seeded randomness and parameter formulas.

The contention rule itself (exponents, keys, the minislot map and the
resolution of a contention) lives in policies; this module only
describes a network and its protocol parameters, states their guarantee
thresholds and recommended values, and supplies the seeded streams every
draw comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1
# The seed of every preset, config file and check that names none.
DEFAULT_SEED = 20260808


class ParameterError(ValueError):
    """Raised for structurally invalid configuration or call parameters."""


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def _check_counts(method: str, size: "int | tuple[int, ...]") -> None:
    """Raise ParameterError naming size, a count or a shape, when a count
    in it is negative; numpy would only say that negative dimensions are
    not allowed."""
    if min((size,) if np.ndim(size) == 0 else size, default=0) < 0:
        raise ParameterError(
            f"{method}() needs non-negative counts, got {size}")


class RngStream:
    """A reproducible pseudorandom substream.

    A stream is identified by a 64-bit seed plus a path of non-negative
    integer substream ids.  Identical (seed, path, call sequence) always
    reproduces identical draws bit-for-bit.
    """

    _BUFFER = 4096

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        # whole floats are stored as ints, as NetworkConfig stores them
        self.seed = whole_number("seed", seed)
        if not 0 <= self.seed <= _SEED_MASK:
            raise ParameterError(f"seed must fit in 64 bits, got {self.seed}")
        self.path = tuple(whole_number("substream id", p, least=0)
                          for p in path)
        ss = np.random.SeedSequence((self.seed, *self.path))
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._buf = np.empty(0)
        self._pos = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"

    def uniform(self) -> float:
        """One draw from Uniform[0, 1); served from an internal block cache."""
        if self._pos >= len(self._buf):
            self._buf = self._gen.random(self._BUFFER)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def uniforms(self, size: "int | tuple[int, ...]") -> np.ndarray:
        """Bulk Uniform[0, 1) draws of a size or shape, bypassing the
        scalar cache.

        The draws fill the shape in row-major order and continue the same
        sequence across calls, so uniforms((k, n)) holds in its rows what
        k calls of uniforms(n) would return.  Deterministic for a fixed
        call sequence, like every draw here, but interleaving scalar and
        bulk draws maps onto the underlying generator differently than
        scalar draws alone would.
        """
        _check_counts("uniforms", size)
        return self._gen.random(size)

    def jump_ahead(self, count: int) -> "RngStream":
        """Reserve this stream's next count bulk draws: return a twin of
        this stream whose bulk draws begin with them, and move this
        stream past them.

        The twin draws what uniforms(count) would have returned: the
        draws count from the stream's generator, not from uniform()'s
        cache, as every bulk draw does.  So threads can draw reserved
        ranges of one sequence with the bits sequential calls would give.
        PCG64 advances in O(log count) steps (O'Neill's LCG jump-ahead).
        """
        _check_counts("jump_ahead", count)
        twin = RngStream(self.seed, self.path)
        twin._gen.bit_generator.state = self._gen.bit_generator.state
        self._gen.bit_generator.advance(count)
        return twin

    def log_exponentials(self, out: np.ndarray) -> np.ndarray:
        """ln E for this stream's next len(out) bulk uniforms u, written
        over out, a contiguous float64 row, and returned: the one exp(1)
        draw, of every engine timer and every sampled check's row.

        E = -log1p(-u), the exp(1) inverse CDF, through numpy's vector
        log1p, which maps each uniform on its own: the terms do not
        depend on how a sequence is split into calls, and n terms take n
        uniforms.  A zero uniform gives E = 0 and ln E = -inf, without a
        warning: on the 2**-53 grid of uniforms it stands for the exp(1)
        mass in [0, 2**-53).
        """
        self._gen.random(out=out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        with np.errstate(divide="ignore"):
            return np.log(out, out=out)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ParameterError(f"integer() needs n >= 1, got {n}")
        return min(int(self.uniform() * n), n - 1)

    def integers(self, n: int, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform integers in [0, n) from bulk uniforms (see uniforms())."""
        if n <= 0:
            raise ParameterError(f"integers() needs n >= 1, got {n}")
        _check_counts("integers", shape)
        return np.minimum((self.uniforms(shape) * n).astype(np.int64), n - 1)


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------

def weight_vectors(weights: Sequence[float]) -> np.ndarray:
    """weights as a float array of weight vectors along the last axis,
    each weight positive and finite."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or not np.all((w > 0) & (w < math.inf)):
        raise ParameterError(
            f"weights must be non-empty and positive and finite, got {w}")
    return w


def whole_number(name: str, value, least: int | None = None) -> int:
    """value as an int.  ParameterError names name when value is not a
    whole number (a fractional or non-finite float, a string, None) or
    is below least."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _checked_weights(n_sources: int, weights: Sequence[float]
                     ) -> tuple[float, ...]:
    """n_sources >= 1 weights as floats, each positive and finite."""
    if n_sources < 1:
        raise ParameterError(f"n_sources must be >= 1, got {n_sources}")
    weights = tuple(float(w) for w in weights)
    if len(weights) != n_sources:
        raise ParameterError(f"need {n_sources} weights, got {len(weights)}")
    weight_vectors(weights)
    return weights


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of one single-hop network run.

    Weights are any positive finite floats (sqrt-of-index weights are a
    standard benchmark); the per-frame match and drift guarantees are
    stated for integer weights.
    """

    n_sources: int
    weights: tuple[float, ...]
    horizon_frames: int
    seed: int

    def __post_init__(self):
        # whole floats are stored as ints
        for name, least in (("n_sources", None), ("horizon_frames", 1),
                            ("seed", None)):
            object.__setattr__(self, name,
                               whole_number(name, getattr(self, name), least))
        object.__setattr__(self, "weights",
                           _checked_weights(self.n_sources, self.weights))
        if not 0 <= self.seed <= _SEED_MASK:
            raise ParameterError(f"seed must fit in 64 bits, got {self.seed}")

    @property
    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class BackoffParams:
    """Contention-protocol parameters.

    alpha drives the state-dependent rate alpha**exponent, beta and
    b_offset control the log-scale minislot discretization, and
    minislots_per_update (M) is the update transmission length in
    minislots; b_offset and M are whole numbers.  ln_alpha and ln_beta
    are their natural logs, taken once at construction; they are not
    fields, so repr, equality and hashing see the four parameters alone.
    """

    alpha: float
    beta: float = 1.1
    b_offset: int = 250
    minislots_per_update: int = 10_000

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ParameterError(f"alpha must be finite and > 1, got {self.alpha}")
        # The domain where every minislot is exact in floats: an exp(1) draw
        # from a 53-bit uniform is at most 53 ln 2 and a rate at least 1, so
        # a key ln(Z) / ln(beta) is at most ln(53 ln 2) / ln(beta) ~ 3.96e12
        # and B + floor(key) stays below 2**53.  beta itself is compared so
        # that the stated edge is accepted.
        if not 1.0 + 2**-40 <= self.beta < math.inf:
            raise ParameterError(f"beta must be finite and >= 1 + 2**-40, got {self.beta}")
        # B and M count minislots: resolve forms B + floor(key) in floats
        # and resolve_rows in int64, which agree only on whole numbers.
        for name, least in (("b_offset", None), ("minislots_per_update", 1)):
            object.__setattr__(self, name,
                               whole_number(name, getattr(self, name), least))
        if not 0 <= self.b_offset <= 2**52:
            raise ParameterError(f"b_offset must be in [0, 2**52], got {self.b_offset}")
        # Every M up to 2**53 is a float, so a frame's s / M is one
        # correctly rounded float division.
        if self.minislots_per_update > 2**53:
            raise ParameterError("minislots_per_update must be in [1, 2**53], "
                                 f"got {self.minislots_per_update}")
        object.__setattr__(self, "ln_alpha", math.log(self.alpha))
        object.__setattr__(self, "ln_beta", math.log(self.beta))


# ---------------------------------------------------------------------------
# Guarantee thresholds and recommended defaults
# ---------------------------------------------------------------------------

def match_alpha_threshold(n_sources: int, delta: float) -> float:
    """Smallest alpha guaranteeing per-frame match probability 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    return (n_sources - 1) * (1.0 - delta) / delta


def drift_alpha_threshold(weights: Sequence[float]) -> "float | np.ndarray":
    """Alpha above which the drift-domination guarantee applies; one per
    weight vector along the last axis."""
    w = weight_vectors(weights)
    s = np.sqrt(w)
    return (w.shape[-1] - 1) * s.sum(axis=-1) / s.min(axis=-1)


def recommended_defaults(n_sources: int, weights: Sequence[float], *,
                         aoii: bool = False,
                         log_base: float = 10.0) -> BackoffParams:
    """Benchmark parameter formulas for a network of this size and weighting.

    log_base selects the logarithm used inside the beta formula.  The
    base-10 default keeps beta near 1.1 for mid-sized networks, which is
    where the collision rate bottoms out; pass math.e for a natural-log
    sensitivity check (it yields markedly coarser minislot grids).
    """
    w = np.asarray(_checked_weights(n_sources, weights))
    if not 1.0 < log_base < math.inf:
        raise ParameterError(f"log_base must be finite and > 1, got {log_base}")

    def _log(x: float) -> float:
        return math.log(x, log_base)

    # log(log(n)) is undefined at n = 1 and negative for small n; the
    # outer max() clamp keeps beta strictly above 1 in both formulas.
    loglog = _log(_log(n_sources)) if n_sources >= 2 and _log(n_sources) > 0 else -math.inf
    if aoii:
        return BackoffParams(alpha=2.1,
                             beta=1.05 + max(loglog, 0.0),
                             b_offset=250 + n_sources // 4)
    return BackoffParams(alpha=1.0 + 1.0 / float(w.sum()),
                         beta=1.1 + max(loglog, 0.0),
                         b_offset=250 + n_sources)
