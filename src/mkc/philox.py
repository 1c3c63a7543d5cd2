"""numpy's Philox4x64-10 uniform draws, reproduced bit for bit.

The stream is Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11, and numpy's random module is never imported: row i of
_philox_uniform(s, W, realizations, sites) is
Generator(Philox(key=[s, realizations[i]])).uniform(-W, W, sites).  The
key is (s mod 2**64, r), each 64-bit output x becomes the double
u = (x >> 11) 2**-53 and the value is low + (high - low) u with
low = -W, high = W.  Seeds lie in [-2**63, 2**63) and W >= 0 with 2W
finite (_check_ensemble).
"""

import math

import numpy as np

from .errors import ConfigError

# Philox4x64-10 multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF


def _check_ensemble(amplitude, realizations, seed):
    """ConfigError unless W >= 0 with 2W finite, realizations >= 1 and seed fits 64 bits."""
    # numpy's uniform draws low + (high - low) u, so 2W must be finite too
    if not (0.0 <= amplitude and math.isfinite(2.0 * float(amplitude))):
        raise ConfigError(f"disorder amplitude W must be >= 0 with 2W finite, got {amplitude}")
    if int(realizations) != realizations or realizations < 1:
        raise ConfigError(f"realizations must be a positive integer, got {realizations}")
    if not -(2**63) <= seed < 2**63:
        raise ConfigError(f"seed must lie in [-2**63, 2**63), got {seed}")


def _mulhilo(a, m):
    """(high, low) 64-bit words of the 128-bit products of uint64 arrays a and m.

    The high word is summed from 32-bit halves, each partial product fitting
    uint64.
    """
    a0, a1 = a & _LOW32, a >> 32
    m0, m1 = m & _LOW32, m >> 32
    lh, hl = a0 * m1, a1 * m0
    mid = (a0 * m0 >> 32) + (lh & _LOW32) + (hl & _LOW32)
    return a1 * m1 + (lh >> 32) + (hl >> 32) + (mid >> 32), a * m


def _philox_uniform(seed, amplitude, realizations, sites):
    """Uniform [-W, W] draws, one row of sites values per realization.

    Row i is numpy's Generator(Philox(key=[seed, realizations[i]]))
    .uniform(-W, W, sites) bit for bit: block b of four outputs encrypts
    the counter (b + 1, 0, 0, 0), since numpy bumps the counter before its
    first block, under the key (seed mod 2**64, realization), bumped by the
    Weyl increments after each of the ten rounds.  Each round multiplies
    the even words (c0, c2) in one (2, R, B) product.
    """
    k1 = np.asarray(realizations, dtype=np.uint64)
    key = np.stack([np.full_like(k1, int(seed) % 2**64), k1])[:, :, None]
    m, w = (np.array(c, dtype=np.uint64)[:, None, None] for c in (_PHILOX_M, _PHILOX_W))
    even = np.zeros((2, k1.size, -(-sites // 4)), dtype=np.uint64)
    even[0] = np.arange(1, even.shape[2] + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for _ in range(_PHILOX_ROUNDS):
        hi, lo = _mulhilo(even, m)
        # (c0, c1, c2, c3) <- (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
        key = key + w
    x = np.stack([even, odd], axis=-1).transpose(1, 2, 0, 3).reshape(k1.size, -1)[:, :sites]
    low, high = -amplitude, amplitude
    return low + (high - low) * ((x >> 11) * 2.0**-53)
