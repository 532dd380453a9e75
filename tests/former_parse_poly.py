"""The former hand tokenizer of exactalg.parse_poly, kept as a test oracle.

It split the text into signed terms by scanning for signs and parsed each
term's coefficient and exponent with int().  exactalg.parse_poly now
matches one term pattern at a time; the tests compare the two on a seeded
random corpus.  This reader takes a negative exponent as an index from the
end of its coefficient list, so it misreads "t^2 + 5*t^-1" as 5*t^2.
"""

from ymseries.exactalg import ParseError, Poly


def parse_poly(text: str) -> Poly:
    """The former exactalg.parse_poly."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    if s == "0":
        return Poly.zero()
    # split into signed terms
    terms = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict[int, int] = {}
    for term in terms:
        if not term or term in "+-":
            raise ParseError(f"bad term in {text!r}")
        sign = 1
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if "t" not in body:
            try:
                c, d = sign * int(body), 0
            except ValueError as exc:
                raise ParseError(f"bad constant {term!r}") from exc
        else:
            head, _, tail = body.partition("t")
            if head.endswith("*"):
                head = head[:-1]
            try:
                c = sign * (int(head) if head else 1)
            except ValueError as exc:
                raise ParseError(f"bad coefficient {term!r}") from exc
            if tail == "":
                d = 1
            elif tail.startswith("^"):
                try:
                    d = int(tail[1:])
                except ValueError as exc:
                    raise ParseError(f"bad exponent {term!r}") from exc
            else:
                raise ParseError(f"bad term {term!r}")
        coeffs[d] = coeffs.get(d, 0) + c
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(out)
