"""Test-only counters of the loop passes that the CLI's work estimates
bound, one for each kind of pass that ``cli.PRICES`` prices but its fixed
terms, installed by monkeypatching the names each loop calls once a pass:

* ``leaves``: vectors that ``weyl_orbits._dominant_eps_in_ball`` draws
  from ``combinations_with_replacement``, each tested against the f-ball;
* ``socles``: ``socle_formula`` calls of ``enumerate_gamma``, one a kept
  leaf;
* ``family``: passes of ``level_two_family``'s loop, which calls ``any``
  first in each;
* ``descent``: steps of ``weyl_orbits._descend``, which calls
  ``enumerate`` once a step and once more at the end;
* ``memo``: calls of ``partitions._count`` and ``_rho_multi_sorted``,
  whose caches are cleared first, so that the count is a cold one;
* ``coefficients``: coefficient updates of ``partitions.times_q_factors``
  as ``q_binomial`` calls it (the oracle's own calls are not counted),
  coefficients that ``LaurentPoly.shift`` moves and coefficient pairs that
  ``LaurentPoly.__mul__`` multiplies;
* ``count`` and ``listing``: passes of the tableau tree's child loop,
  which calls ``divmod`` once a pass, the listing's where the listing's
  walk called the loop and the count's elsewhere (``shape_character``'s
  own calls, made by the listing's re-check, are not counted).
"""

import builtins
import sys
from contextlib import contextmanager
from itertools import combinations_with_replacement

import pytest

from affmult import partitions, tableaux, weyl_orbits
from affmult.laurent import LaurentPoly

KINDS = ("leaves", "socles", "family", "descent", "memo", "coefficients", "count", "listing")


@contextmanager
def counting():
    """Yields a dict of the counts of KINDS, which grow while the block runs."""
    counts = dict.fromkeys(KINDS, 0)
    paused = [0]

    def tally(kind, fn, weight=lambda *args: 1):
        def counted(*args):
            if not paused[0]:
                counts[kind] += weight(*args)
            return fn(*args)
        return counted

    def leaves(*args):
        for a in combinations_with_replacement(*args):
            counts["leaves"] += 1
            yield a

    def child_pass(*args):
        # the frames of child_pass, the child loop and the loop's caller
        if not paused[0]:
            counts["listing" if sys._getframe(2).f_code.co_name == "walk" else "count"] += 1
        return divmod(*args)

    def unpaused(fn):
        def inner(*args):
            paused[0] += 1
            try:
                return fn(*args)
            finally:
                paused[0] -= 1
        return inner

    for cache in (partitions._count, partitions._rho_multi_sorted, partitions.q_binomial):
        cache.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weyl_orbits, "combinations_with_replacement", leaves)
        mp.setattr(weyl_orbits, "socle_formula", tally("socles", weyl_orbits.socle_formula))
        # module globals of these names shadow the builtins inside one module
        mp.setattr(weyl_orbits, "any", tally("family", builtins.any), raising=False)
        mp.setattr(weyl_orbits, "enumerate", tally("descent", builtins.enumerate), raising=False)
        mp.setattr(tableaux, "divmod", child_pass, raising=False)
        mp.setattr(tableaux, "shape_character", unpaused(tableaux.shape_character))
        mp.setattr(partitions, "_count", tally("memo", partitions._count))
        mp.setattr(partitions, "_rho_multi_sorted", tally("memo", partitions._rho_multi_sorted))
        mp.setattr(partitions, "times_q_factors", tally(
            "coefficients", partitions.times_q_factors,
            lambda c, rs, power=1: abs(power) * sum(max(len(c) - r, 0) for r in rs)))
        mp.setattr(LaurentPoly, "shift", tally("coefficients", LaurentPoly.shift,
                                               lambda p, s: len(p.coeffs)))
        mp.setattr(LaurentPoly, "__mul__", tally("coefficients", LaurentPoly.__mul__,
                                                 lambda p, q: len(p.coeffs) * len(q.coeffs)))
        yield counts
