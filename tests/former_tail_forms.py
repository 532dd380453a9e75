"""The former two transcriptions of the B_n/C_n flat series, kept as a test oracle.

sp_flat and so_odd_flat used to build their two summand families each in
its own walk over the compositions of n.  They are now one walk,
closedforms._end_root_terms, that differs between the two groups only in
the end root's two boundary exponents; the tests compare the two.
"""

from ymseries.closedforms import _check_rank_and_genus, _doubled_adjacent_sums, _gauge
from ymseries.errors import InputError
from ymseries.exactalg import signed_sum
from ymseries.gaugeseries import tail_profile
from ymseries.levidata import _compositions, _pair_sum
from ymseries.rootsys import SO_ODD, SYMPLECTIC, frac_part


def former_sp_terms(n, ell):
    """The signed terms of the former sp_flat, in its order."""
    for comp in _compositions(n):
        r, last = len(comp), comp[-1]
        pair2 = 2 * _pair_sum(comp)
        adj = _doubled_adjacent_sums(comp)
        e1 = (ell - 1) * (pair2 + n * (n + 1)) + sum(adj) + 2 * (last + 1)
        yield (-1) ** r, _gauge(ell, comp), e1, adj + [2 * (last + 1)]

        ks2 = adj[: r - 2]
        e2 = (ell - 1) * (pair2 + n * (n + 1) - last * (last + 1)) + sum(ks2)
        if r > 1:
            boundary = 2 * (comp[-2] + 2 * last + 1)
            ks2 = ks2 + [boundary]
            e2 += boundary
        tail = tail_profile(SYMPLECTIC, last)
        yield (-1) ** (r - 1), _gauge(ell, comp[:-1], tail), e2, ks2


def former_so_odd_terms(n, ell, w2):
    """The signed terms of the former so_odd_flat, in its order; its tail
    family's twist telescoped to 2 sum_{i<r}(n_i+n_{i+1}) + 2 eps(r) n_r."""
    q4 = 2 * frac_part(w2, 2)  # 4 <w2/2>
    for comp in _compositions(n):
        r, last = len(comp), comp[-1]
        pair2 = 2 * _pair_sum(comp)
        adj = _doubled_adjacent_sums(comp)
        e1 = (ell - 1) * (pair2 + n * (n + 1)) + sum(adj) + last * q4
        yield (-1) ** r, _gauge(ell, comp), e1, adj + [4 * last]

        ks2 = adj[: r - 2]
        e2 = (ell - 1) * (pair2 + n * (n + 1) - last * (last + 1)) + sum(adj)
        if r > 1:
            ks2 = ks2 + [2 * comp[-2] + 4 * last]
            e2 += 2 * last
        tail = tail_profile(SO_ODD, last)
        yield (-1) ** (r - 1), _gauge(ell, comp[:-1], tail), e2, ks2


def former_sp_flat(n, ell):
    """Flat series for Sp(n), with the former checks."""
    _check_rank_and_genus(n, 1, ell)
    return signed_sum(former_sp_terms(n, ell))


def former_so_odd_flat(n, ell, w2):
    """Flat series for SO(2n+1) on the bundle with bit w2, with the former checks."""
    _check_rank_and_genus(n, 1, ell)
    if w2 not in (0, 1):
        raise InputError("w2 is a bit")
    return signed_sum(former_so_odd_terms(n, ell, w2))
