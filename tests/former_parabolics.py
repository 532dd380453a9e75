"""The former naming of standard parabolics, kept as a test oracle.

A parabolic used to be named by a composition of n plus the family's
end-node membership flags: none for u, one (is node n in I?) for so-odd
and sp, two (are the fork nodes n-1 and n in I?) for so-even.  Both fork
nodes in I forced a last block of size 1, any other combination a last
block of size >= 2.  enumerate_parabolics listed them ordered by
(composition length, composition, flags); it now lists cut sets, and
former_cut_sets maps the former list to them.
"""

from itertools import accumulate

from ymseries.levidata import _compositions


def former_parabolics(g):
    """The former enumerator's (composition, flags) pairs, in its order."""
    n, fam = g.n, g.family
    out = []
    for comp in _compositions(n):
        if fam == "u":
            out.append((comp, ()))
        elif fam in ("so-odd", "sp"):
            out += [(comp, (False,)), (comp, (True,))]
        elif comp[-1] == 1:
            out.append((comp, (True, True)))
        else:
            out += [(comp, flags) for flags in ((False, False), (False, True), (True, False))]
    return out


def former_cut_set(g, comp, flags):
    """The simple roots cut by the parabolic named (comp, flags)."""
    n = g.n
    cut = set(accumulate(comp[:-1]))
    if flags == (True,):
        cut.add(n)
    elif len(flags) == 2:
        # a size-1 last block puts n - 1 among the cut positions already
        cut |= {node for node, flag in zip((n - 1, n), flags) if flag}
    return frozenset(cut)


def former_cut_sets(g):
    return [former_cut_set(g, comp, flags) for comp, flags in former_parabolics(g)]
