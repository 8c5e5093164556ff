"""De-randomized binary string guessing under random-order arrivals.

Guess 0 for the first bit, then persist with the first bit's true value
until the first miss.  The miss happens exactly when the first bit value
different from the leading one arrives, which is also the moment COMBINE
emits its bit r; guess r from then on.  On a constant string there is never
a switch and at most the very first guess is wrong.  A run is a
``GuessTrace``, an ``extraction.Run`` whose ``one`` and ``zero`` count the
correct guesses with r = 1 and r = 0, equal on a constant string.

Exact E[correct] over a string's arrival orders is the ``string_guess`` row
of ``harness.PROBLEM_TABLE``: ``mean_alg`` is E[correct] and
``empirical_ratio`` is n / E[correct].  Its Monte Carlo strings are the
bits ``random() < p`` of a Mersenne Twister, each draw two 32-bit words,
read in bulk by ``_draw_bits`` and compared in C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import InputError, rng_for
from .extraction import Run, harvest


@dataclass
class GuessTrace(Run):
    guesses: tuple
    switch_index: int  # position of the first miss / bit emission, or None


def _correct(bits, r, switch):
    """Correct guesses on a string of 0/1 ints (a tuple or bytes), given
    ``harvest``'s (r, switch) for it: the first guess, 0, is right when
    bits[0] is 0; the guesses of bits[0] before the switch are all right and
    the one at the switch is wrong; every later guess of r is counted."""
    if switch is None:  # a constant string: only the first guess can miss
        return len(bits) - sum(bits[:1])
    return (bits[0] == 0) + switch - 1 + bits[switch + 1:].count(r)


def guess_run(bits):
    """Play one arrival order of the truth string; returns the full trace."""
    bits = tuple(bits)
    if not set(bits) <= {0, 1}:
        raise InputError("string guessing items must be bits")
    bits = tuple(map(int, bits))
    r, switch = harvest(bits)
    # guess 0 first, persist with the first bit up to the switch, then r
    head = len(bits) - 1 if switch is None else switch
    guesses = bits and (0,) + (bits[0],) * head + (r,) * (len(bits) - 1 - head)
    return GuessTrace(r, _correct(bits, 1, switch), _correct(bits, 0, switch),
                      guesses=guesses, switch_index=switch)


# Bits per ``getrandbits`` call: a block's int and its bytes stay near 32 KB.
_BLOCK = 4096


def _draw_bits(rng, n, p):
    """n bits as bytes, bit k being the k-th ``rng.random() < p``; ``rng``
    is left as those n calls leave it.

    CPython's ``random()`` is x / 2**53, x = (a >> 5) * 2**26 + (b >> 6) for
    the generator's next two 32-bit words a and b.  ``getrandbits(64 * k)``
    returns 2k words, least significant first, so draw i is bytes 8i .. 8i
    + 7 of its little-endian bytes, and byte 8i + 3, a's top byte, is x's.
    x / 2**53 < p exactly when x < t = ceil(p * 2**53), an exact product.
    A byte table decides every draw whose top byte is not t's, in C; the
    ties, about one draw in 256, are compared in full.
    """
    t = math.ceil(p * 2**53)
    table = (b"\1" * (t >> 45) + b"\2").ljust(256, b"\0")[:256]  # 2 marks a tie
    blocks = []
    for j in range(0, n, _BLOCK):
        k = min(_BLOCK, n - j)
        words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        bits = bytearray(words[3::8].translate(table))
        i = bits.find(2)
        while i >= 0:
            w = int.from_bytes(words[8 * i:8 * i + 8], "little")
            bits[i] = (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38 < t
            i = bits.find(2, i + 1)
        blocks.append(bits)
    return b"".join(blocks)


def empirical_ratio(n, p_one, trials, seed):
    """Monte Carlo n / E[correct] over random truth strings and arrivals.

    Each trial draws a Bernoulli(p_one) string and one arrival order; the
    arrival order of an exchangeable random string is itself the string, so
    a single shuffle-free draw suffices.  Bit k is ``rng.random() < p_one``
    on the trial's ``rng_for(seed, t)``, drawn by ``_draw_bits``; the switch
    is found and the guesses counted in C, by ``bytes.find`` and
    ``_correct``.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    p = float(p_one)
    if not 0 <= p <= 1:
        raise InputError(f"p_one must lie in [0, 1], got {p_one}")
    total_correct = 0
    for t in range(trials):
        bits = _draw_bits(rng_for(seed, t), n, p)
        # combine's rule, read in C: the switch is the first bit unlike bits[0]
        switch = bits.find(1 - bits[0], 1)  # -1 on a constant string
        r = int(bits[1] < bits[0]) if switch == 1 else (switch + 1) % 2
        total_correct += _correct(bits, r, switch if switch > 0 else None)
    if not total_correct:
        raise InputError("E[correct] is 0, so n/E[correct] is unbounded")
    mean = total_correct / trials
    return {
        "n": n,
        "mean_correct": mean,
        "ratio": n / mean,
        "trials": trials,
        "seed": seed,
    }
