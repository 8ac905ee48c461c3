"""The relation reader as it stood before relations were read through the
map parser's tokenizer, kept verbatim as the reference that
test_polynomials.py compares the tokenizing reader against.  The one
intended difference: this reader takes a '*' after a coefficient with no
factor after it ("3*", "3* + x") as no '*' at all, where the tokenizing
reader refuses it as a dangling '*'."""

from fractions import Fraction
from typing import Sequence, Tuple

from weilkit.errors import ParseError
from weilkit.polynomials import Monomial, Polynomial, Terms


def _name_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def read_int(p: int) -> Tuple[int, int]:
        start = p
        while p < n and text[p].isdecimal():
            p += 1
        if p == start:
            raise ParseError("expected integer", start)
        try:
            return int(text[start:p]), p
        except ValueError:  # more digits than int() converts
            raise ParseError("integer literal too long", start) from None

    def read_name(p: int) -> Tuple[str, int]:
        start = p
        while p < n and _name_char(text[p]):
            p += 1
        if p == start:
            raise ParseError("expected variable name", start)
        return text[start:p], p

    acc: Terms = {}
    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty polynomial", 0)
    first = True
    while pos < n:
        sign = 1
        pos = skip_ws(pos)
        if not first or (pos < n and text[pos] in "+-"):
            if pos >= n or text[pos] not in "+-":
                raise ParseError("expected '+' or '-'", pos)
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        first = False

        coeff = Fraction(1)
        saw_coeff = False
        exps = [0] * nvars
        saw_factor = False

        if pos < n and text[pos].isdecimal():
            num, pos = read_int(pos)
            pos2 = skip_ws(pos)
            if pos2 < n and text[pos2] == "/":
                den, pos = read_int(skip_ws(pos2 + 1))
                if den == 0:
                    raise ParseError("zero denominator", pos2)
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            saw_coeff = True
            pos = skip_ws(pos)
            if pos < n and text[pos] == "*":
                pos = skip_ws(pos + 1)
            elif pos < n and text[pos] not in "+-":
                raise ParseError("expected '*', '+', '-' or end after coefficient", pos)

        while pos < n and text[pos] not in "+-":
            name, pos = read_name(skip_ws(pos))
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", pos - len(name))
            e = 1
            pos = skip_ws(pos)
            if pos < n and text[pos] == "^":
                e, pos = read_int(skip_ws(pos + 1))
            exps[index[name]] += e
            saw_factor = True
            pos = skip_ws(pos)
            if pos < n and text[pos] == "*":
                pos = skip_ws(pos + 1)
                if pos >= n or text[pos] in "+-":
                    raise ParseError("dangling '*'", pos)
            elif pos < n and text[pos] not in "+-":
                raise ParseError("expected '*', '+', '-' or end", pos)

        if not saw_coeff and not saw_factor:
            raise ParseError("empty term", pos)
        mono = Monomial(tuple(exps))
        s = acc.get(mono, Fraction(0)) + sign * coeff
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
        pos = skip_ws(pos)

    return Polynomial(nvars, acc)
