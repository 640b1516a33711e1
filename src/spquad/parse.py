"""Text format for monomial ODE systems (.spode) and frames (.frame).

Grammar for equations, one per line::

    line     := "x" INT "'" "=" rhs
    rhs      := "0" | ["-"] term (("+" | "-") term)*
    term     := coeff ("*" factor)* | factor ("*" factor)*
    factor   := "x" INT ["^" exponent]
    exponent := NUMBER | "(" ["-"] NUMBER ["/" NUMBER] ")"
    coeff    := NUMBER | "poly(" SNUM ("," SNUM)* ")"

``poly(c0,c1,...)`` denotes the time polynomial c0 + c1*t + c2*t**2 + ...
Indices start at 1, and a number beyond the float range is a syntax error.
Exponents written as integers or parenthesised ratios are exact rationals
(this drives the domain classification); exponents with a decimal point are
conservatively treated as irrational.  A lone ``0`` right-hand side is the
zero equation (no monomials); equation indices missing up to the largest
referenced index are zero equations too.

Frames are whitespace/comma separated square matrices of NUMBER or
``poly(...)`` entries, one row per line.

Serialization is canonical: reals print as shortest round-trip decimals and
``parse(serialize(x))`` reproduces the data model exactly.  The grammar
writes time polynomials in powers of t, so a system or frame whose center
is not 0 raises ValueError instead of printing as another one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadExponent, DuplicateEquation, NonSquare,
                     OdeSyntaxError)
from .quadratize import QuadraticFrame, coefficient_lists
from .sigmapi import Monomial, SigmaPiOde


@dataclass(frozen=True)
class SourceSpan:
    """Location of a text fragment: 1-based line/column plus byte offsets."""

    line: int
    column: int
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start must not exceed end")


class _LineParser:
    def __init__(self, text: str, line_no: int, line_offset: int):
        self.text = text
        self.line_no = line_no
        self.line_offset = line_offset
        self.pos = 0

    # --- low-level helpers ---

    def span(self, start: int, end: int | None = None) -> SourceSpan:
        end = self.pos if end is None else end
        return SourceSpan(self.line_no, start + 1,
                          self.line_offset + start, self.line_offset + end)

    def fail(self, message: str, start: int | None = None,
             cls=OdeSyntaxError):
        start = self.pos if start is None else start
        end = min(max(start + 1, self.pos), len(self.text))
        start = min(start, end)
        raise cls(f"line {self.line_no}, column {start + 1}: {message}",
                  self.span(start, end))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def eol(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, ch: str) -> bool:
        if self.text.startswith(ch, self.pos):
            self.pos += len(ch)
            return True
        return False

    def expect(self, ch: str):
        if not self.match(ch):
            self.fail(f"expected {ch!r}")

    def read_index(self) -> int:
        """A component index, 1 or more."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        idx = int(self.text[start:self.pos])
        if idx == 0:
            self.fail("component indices start at 1", start)
        return idx

    def read_unsigned_number(self) -> tuple[float, bool, str]:
        """Returns (value, is plain integer literal, raw text)."""
        start = self.pos
        digits = False
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
            digits = True
        is_int = digits
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            is_int = False
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
                digits = True
        if not digits:
            self.fail("expected a number", start)
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                is_int = False
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent suffix after all
        raw = self.text[start:self.pos]
        value = float(raw)
        if not math.isfinite(value):
            self.fail("number beyond the float range", start)
        return value, is_int, raw

    def read_signed_number(self) -> float:
        sign = -1.0 if self.match("-") else 1.0
        if sign > 0:
            self.match("+")
        value, _, _ = self.read_unsigned_number()
        return sign * value

    # --- grammar productions ---

    def parse_poly(self) -> list[float]:
        """The coefficients c0, c1, ... of a ``poly(...)`` literal."""
        self.expect("poly(")
        coeffs = [self._poly_arg()]
        self.skip_ws()
        while self.match(","):
            coeffs.append(self._poly_arg())
            self.skip_ws()
        self.expect(")")
        return coeffs

    def _poly_arg(self) -> float:
        self.skip_ws()
        return self.read_signed_number()

    def parse_exponent(self):
        """An exponent literal: Fraction when exact, float when decimal."""
        if self.match("("):
            self.skip_ws()
            negative = self.match("-")
            self.skip_ws()
            start = self.pos
            value, is_int, raw = self.read_unsigned_number()
            self.skip_ws()
            if self.match("/"):
                if not is_int:
                    self.fail("rational exponents need integer parts", start)
                self.skip_ws()
                dstart = self.pos
                den, den_int, _ = self.read_unsigned_number()
                if not den_int:
                    self.fail("rational exponents need integer parts", dstart)
                if den == 0:
                    self.fail("zero denominator in exponent", dstart,
                              cls=BadExponent)
                result = Fraction(int(raw), int(den))
            elif is_int:
                result = Fraction(int(raw))
            else:
                result = value
            self.skip_ws()
            self.expect(")")
            return -result if negative else result
        value, is_int, raw = self.read_unsigned_number()
        return Fraction(int(raw)) if is_int else value

    def parse_factor(self) -> tuple[int, object]:
        self.expect("x")
        idx = self.read_index()
        if self.match("^"):
            return idx, self.parse_exponent()
        return idx, Fraction(1)

    def parse_term(self) -> tuple[list[float], Monomial, bool]:
        """Returns (coefficient, monomial, was the bare literal 0)."""
        self.skip_ws()
        start = self.pos
        coeff = None
        bare_zero = False
        exps: dict[int, object] = {}
        if self.text.startswith("poly(", self.pos):
            coeff = self.parse_poly()
        elif self.peek().isdigit() or self.peek() == ".":
            value, _, raw = self.read_unsigned_number()
            coeff = [value]
            bare_zero = value == 0.0 and raw in ("0", "0.0")
        elif self.peek() == "x":
            idx, p = self.parse_factor()
            self._merge(exps, idx, p)
        else:
            self.fail("expected a coefficient or a factor", start)
        self.skip_ws()
        while self.match("*"):
            self.skip_ws()
            if self.peek() != "x":
                self.fail("expected a factor after '*'")
            idx, p = self.parse_factor()
            self._merge(exps, idx, p)
            bare_zero = False
            self.skip_ws()
        if coeff is None:
            coeff = [1.0]
        return coeff, Monomial(exps), bare_zero

    @staticmethod
    def _merge(exps: dict, idx: int, p) -> None:
        if idx in exps:
            a = exps[idx]
            if isinstance(a, Fraction) and isinstance(p, Fraction):
                exps[idx] = a + p
            else:
                exps[idx] = float(a) + float(p)
        else:
            exps[idx] = p

def parse_ode(text: str) -> SigmaPiOde:
    """Parse equation text into a system; see the module docstring."""
    equations: dict[int, list] = {}
    offset = 0
    any_line = False
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            any_line = True
            parser = _LineParser(line, line_no, offset)
            idx, terms, lhs_span = _parse_line(parser)
            if idx in equations:
                raise DuplicateEquation(
                    f"line {line_no}: equation for x{idx} already defined",
                    lhs_span)
            equations[idx] = terms
        offset += len(line) + 1
    if not any_line:
        raise OdeSyntaxError("empty input", SourceSpan(1, 1, 0, 0))
    n = max(equations)
    for terms in equations.values():
        for _, mono in terms:
            n = max(n, mono.max_index())
    rows = [equations.get(i, []) for i in range(1, n + 1)]
    return SigmaPiOde(n, rows)


def _parse_line(parser: _LineParser):
    parser.skip_ws()
    lhs_start = parser.pos
    parser.expect("x")
    idx = parser.read_index()
    lhs_span = parser.span(lhs_start)
    parser.skip_ws()
    parser.expect("'")
    parser.skip_ws()
    parser.expect("=")
    parser.skip_ws()
    negate_first = parser.match("-")
    coeff, mono, bare_zero = parser.parse_term()
    if negate_first:
        coeff = [-c for c in coeff]
        bare_zero = False
    terms = [(coeff, mono)]
    parser.skip_ws()
    while not parser.eol():
        if parser.match("+"):
            sign = 1.0
        elif parser.match("-"):
            sign = -1.0
        else:
            parser.fail("expected '+', '-' or end of line")
        coeff, mono, _ = parser.parse_term()
        terms.append((coeff if sign > 0 else [-c for c in coeff], mono))
        bare_zero = False
        parser.skip_ws()
    if bare_zero:
        return idx, [], lhs_span
    return idx, terms, lhs_span


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _num(value: float) -> str:
    return repr(float(value))


def _exponent_text(value: float, rational: Fraction | None) -> str:
    if rational is not None:
        if rational.denominator == 1:
            n = rational.numerator
            return str(n) if n >= 0 else f"(-{-n})"
        n, d = rational.numerator, rational.denominator
        return f"({n}/{d})" if n >= 0 else f"(-{-n}/{d})"
    return _num(value) if value >= 0 else f"({_num(value)})"


def _monomial_text(mono: Monomial) -> list[str]:
    parts = []
    for j, value, rat in mono.items():
        if rat == Fraction(1):
            parts.append(f"x{j}")
        else:
            parts.append(f"x{j}^{_exponent_text(value, rat)}")
    return parts


def monomial_text(mono: Monomial) -> str:
    """Canonical text of a monomial (the constant monomial prints as 1)."""
    return "*".join(_monomial_text(mono)) or "1"


def _coeff_text(coeffs) -> str:
    if len(coeffs) == 1:
        return _num(coeffs[0])
    return "poly(" + ",".join(_num(c) for c in coeffs) + ")"


def _check_center(center: float) -> None:
    if center != 0.0:
        raise ValueError(f"the text format has no center, so center "
                         f"{center!r} cannot be written")


def serialize_ode(ode: SigmaPiOde) -> str:
    """Canonical text; parse(serialize(ode)) is structurally identical."""
    _check_center(ode.center)
    lines = []
    for i in range(1, ode.n + 1):
        terms = ode.terms(i)
        if not terms:
            lines.append(f"x{i}' = 0")
            continue
        if (len(terms) == 1 and not terms[0][1].indices()
                and terms[0][0] == (0.0,)):
            # a kept zero constant term must not read back as the zero equation
            lines.append(f"x{i}' = poly(0.0)")
            continue
        rendered = []
        for coeff, mono in terms:
            factors = _monomial_text(mono)
            negative = False
            if len(coeff) == 1:
                c = coeff[0]
                negative = c < 0.0
                mag = abs(c)
                if factors and mag == 1.0:
                    coeff_txt = None
                else:
                    coeff_txt = _num(mag)
            else:
                coeff_txt = _coeff_text(coeff)
            pieces = ([coeff_txt] if coeff_txt else []) + factors
            rendered.append((negative, "*".join(pieces)))
        first_neg, first_body = rendered[0]
        text = ("-" if first_neg else "") + first_body
        for negative, body in rendered[1:]:
            text += (" - " if negative else " + ") + body
        lines.append(f"x{i}' = {text}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# frames
# --------------------------------------------------------------------------

def parse_frame(text: str) -> QuadraticFrame:
    """Parse a whitespace/comma matrix of NUMBER or poly(...) entries."""
    rows, spans = [], []
    offset = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            parser = _LineParser(line, line_no, offset)
            row = []
            parser.skip_ws()
            while not parser.eol():
                if parser.text.startswith("poly(", parser.pos):
                    row.append(parser.parse_poly())
                else:
                    row.append([parser.read_signed_number()])
                parser.skip_ws()
                parser.match(",")
                parser.skip_ws()
            rows.append(row)
            spans.append(parser.span(0, len(line)))
        offset += len(line) + 1
    if not rows:
        raise OdeSyntaxError("empty frame", SourceSpan(1, 1, 0, 0))
    dim = len(rows)
    for k, (row, span) in enumerate(zip(rows, spans), start=1):
        if len(row) != dim:
            raise NonSquare(
                f"row {k} has {len(row)} entries; expected {dim}", span)
    layers = max(len(c) for row in rows for c in row)
    return QuadraticFrame._from_coeffs(
        [[[c[l] if l < len(c) else 0.0 for c in row] for row in rows]
         for l in range(layers)], 0.0)


def serialize_frame(frame: QuadraticFrame) -> str:
    _check_center(frame.center)
    return "\n".join(" ".join(_coeff_text(c) for c in row)
                     for row in coefficient_lists(frame.coeffs)) + "\n"
