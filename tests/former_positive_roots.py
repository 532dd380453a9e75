"""The former positive-root walk, kept as a test oracle.

It found each root string length p(beta, i) by stepping down from beta by
alpha_i until it left the roots found so far; rootsys._positive_roots now
takes each length from the root one step below.
"""


def former_positive_roots(simple_roots, simple_coroots) -> list:
    """The positive roots, sorted, each paired with its simple-root coefficients."""
    rank = len(simple_roots)
    # cartan[b][i] = <alpha_b, alpha_i^v>
    cartan = [[sum(x * y for x, y in zip(a, av)) for av in simple_coroots] for a in simple_roots]
    found = {tuple(int(b == i) for b in range(rank)) for i in range(rank)}
    layer = list(found)
    while layer:
        higher = []
        for coeffs in layer:
            for i in range(rank):
                p, down = 0, list(coeffs)
                down[i] -= 1
                while tuple(down) in found:
                    p += 1
                    down[i] -= 1
                if p > sum(c * row[i] for c, row in zip(coeffs, cartan)):
                    up = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1 :]
                    if up not in found:
                        found.add(up)
                        higher.append(up)
        layer = higher
    columns = list(zip(*simple_roots))
    return sorted(
        (tuple(sum(c * x for c, x in zip(coeffs, col)) for col in columns), coeffs)
        for coeffs in found
    )
