"""The former per-family Levi case table, kept as a test oracle.

levidata.levi_profile used to read dim_u, the excess of the Levi's central
dimension over the group's, and the rho_P pairings off closed formulas in
the composition of n that the cut set induces, one case per family and end
node.  It now reads dim_u and the pairings off the root system; criterion 7
compares the two.
"""

from fractions import Fraction

F = Fraction


def _pair_sum(comp):
    """sum over i < j of n_i n_j."""
    total = sum(comp)
    return (total * total - sum(p * p for p in comp)) // 2


def _adjacent_pairings(comp, upto):
    return [F(comp[i] + comp[i + 1], 2) for i in range(upto)]


def case_table(g, cut):
    """(dim_u, center_excess, {a: <rho_P, a^v>}) of the parabolic of g cutting cut."""
    n, fam = g.n, g.family
    indices = sorted(cut)
    chain_end = n - 1 if fam == "so-even" else n
    cuts = [i for i in indices if i < chain_end]
    both_forks = fam == "so-even" and n - 1 in cut and n in cut
    if both_forks:
        cuts.append(n - 1)
    comp = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    r = len(comp)
    if fam == "u":
        pairings = _adjacent_pairings(comp, r - 1)
        dim_u = _pair_sum(comp)
        excess = r - 1
    elif fam in ("so-odd", "sp"):
        if n in cut:
            boundary = F(comp[-1]) if fam == "so-odd" else F(comp[-1] + 1, 2)
            pairings = _adjacent_pairings(comp, r - 1) + [boundary]
            dim_u = _pair_sum(comp) + n * (n + 1) // 2
            excess = r
        else:
            m = comp[-1]
            pairings = _adjacent_pairings(comp, r - 2)
            if r > 1:
                if fam == "so-odd":
                    pairings.append(F(comp[-2], 2) + m)
                else:
                    pairings.append(F(comp[-2] + 1, 2) + m)
            dim_u = _pair_sum(comp) + (n * (n + 1) - m * (m + 1)) // 2
            excess = r - 1
    else:  # so-even
        if both_forks:
            boundary = F(comp[-2] + 1, 2)
            pairings = _adjacent_pairings(comp, r - 2) + [boundary, boundary]
            dim_u = _pair_sum(comp) + n * (n - 1) // 2
            excess = r
        elif n - 1 in cut or n in cut:
            pairings = _adjacent_pairings(comp, r - 1) + [F(comp[-1] - 1)]
            dim_u = _pair_sum(comp) + n * (n - 1) // 2
            excess = r
        else:
            m = comp[-1]
            pairings = _adjacent_pairings(comp, r - 2)
            if r > 1:
                pairings.append(F(comp[-2] + 2 * m - 1, 2))
            dim_u = _pair_sum(comp) + (n * (n - 1) - m * (m - 1)) // 2
            excess = r - 1
    return dim_u, excess, dict(zip(indices, pairings))
