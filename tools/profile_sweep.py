"""Print the recursion profile, or the error, of seeded random sequences.

    PYTHONPATH=src python3 tools/profile_sweep.py --seed 1 --count 4000 > change.txt

Each case draws a sequence of one of the four families in a base among 2-6,
8, 10, 16, 63, 64 and 100, with table values that include zeros of both
signs, tiny values, unit values and overflowing ones.  It profiles the
sequence in its own base, or in B**2 for B <= 10, with the default window
or an explicit one of max(4096, B*(B+1)), B**2 or 5000, B being the
profile's base.  One line per case: the case, then ``repr(profile)`` or
``Type: message``.  The cases depend only on --seed and --count, so running
this file with PYTHONPATH at two checkouts and diffing the outputs shows
which cases a change to ``recursion_profile`` (or to what it reads) alters.
"""

from __future__ import annotations

import argparse
import cmath
import random

from digitprod.digits import DigitStat
from digitprod.errors import DigitprodError
from digitprod.sequences import (DigitStatPower, PeriodicPower, SignedResidue,
                                 StronglyMultiplicative, recursion_profile)

BASES = (2, 3, 4, 5, 6, 8, 10, 16, 63, 64, 100)
SPECIAL = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), 1.0, -1.0, 1j, -1j,
           0.5, 2.0, -2.9, 1e-13, 1e30, 1e200, -1e200, 1e150j, 1e308)


def _value(rng: random.Random, zeros: float) -> complex | float:
    """A zero with probability ``zeros``, else a special or a random value."""
    if rng.random() < zeros:
        return rng.choice((0.0, -0.0))
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(SPECIAL)
    if pick < 0.6:
        return rng.uniform(-3.0, 3.0)
    return cmath.rect(rng.random() ** 0.5, rng.uniform(-cmath.pi, cmath.pi))


def _sequence(rng: random.Random):
    base = rng.choice(BASES)
    zeros = rng.choice((0.0, 0.0, 0.5, 0.9))
    family = rng.randrange(4)
    if family == 0:
        return StronglyMultiplicative(base, [_value(rng, zeros) for _ in range(base - 1)])
    if family == 1:
        stat = rng.choice((
            DigitStat.digit_sum(),
            DigitStat.count(rng.randrange(base)),
            DigitStat.count_set(rng.sample(range(base), rng.randint(1, base))),
        ))
        return DigitStatPower(base, _value(rng, zeros), stat)
    if family == 2:
        q = rng.randint(2, 12)
        return PeriodicPower(base, q, rng.randint(1, q - 1))
    return SignedResidue(base, [_value(rng, zeros) for _ in range(rng.randint(1, 12))])


def cases(seed: int, count: int):
    """``count`` seeded (sequence, profile base, limit) triples."""
    rng = random.Random(seed)
    for _ in range(count):
        seq = _sequence(rng)
        base = seq.base ** 2 if seq.base <= 10 and rng.random() < 0.5 else seq.base
        limit = rng.choice((None, max(4096, base * (base + 1)), base * base, 5000))
        yield seq, base, limit


def outcome(seq, base: int, limit: int | None) -> str:
    try:
        return repr(recursion_profile(seq, limit, base=base))
    except DigitprodError as exc:
        return f"{type(exc).__name__}: {exc}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1000)
    args = parser.parse_args(argv)
    for i, (seq, base, limit) in enumerate(cases(args.seed, args.count)):
        print(f"{i} {seq!r} base={base} limit={limit} -> {outcome(seq, base, limit)}")


if __name__ == "__main__":
    main()
