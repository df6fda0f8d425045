"""Recursively defined functions on lattice modules, and their encodings.

A recurrence assigns a symbol to every point of an L+-module M in N^2: the
module generators carry free initial values, any other point whose shifts by
every beta stay in M takes the table value on those shifted symbols, and all
remaining points take the background symbol.  Direct memoized evaluation of
this definition is the independent oracle that compiled games are verified
against.  The cellular-automaton adapter realises radius-1 CA runs as
recurrences over the index-2 even-sum sublattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .lattice import EVEN_SUM, ModuleIdeal, Sublattice, Vec, as_vec, vsub


class RecurrenceSpec:
    """The data (L, M, betas, alphabet, table g, sigma0, f0)."""

    def __init__(self, lattice, module, betas, alphabet, table, sigma0, f0):
        self.lattice: Sublattice = lattice
        self.module: ModuleIdeal = module
        self.betas = tuple(as_vec(b, 2) for b in betas)
        self.alphabet = tuple(alphabet)
        self.sigma0 = sigma0
        self.table = dict(table)
        self.f0 = {as_vec(p, 2): s for p, s in dict(f0).items()}
        self._memo: dict[Vec, str] = {}
        self._validate()
        self.halfspace_normal = _positive_normal(self.betas)

    def _validate(self):
        if self.module.ambient != self.lattice:
            raise ValueError("module and recurrence use different lattices")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be a nonempty list of distinct symbols")
        if self.sigma0 not in self.alphabet:
            raise ValueError("sigma0 must belong to the alphabet")
        if not self.betas:
            raise ValueError("at least one shift vector is required")
        for b in self.betas:
            if b == (0, 0):
                raise ValueError("shift vectors must be nonzero")
            if not self.lattice.contains(b):
                raise ValueError(f"shift {b} is not in the lattice")
        if len(set(self.betas)) != len(self.betas):
            raise ValueError("duplicate shift vectors")
        if not any(b[0] <= 0 for b in self.betas) or not any(b[1] <= 0 for b in self.betas):
            raise ValueError(
                "shifts must anchor both board axes: some beta needs a nonpositive "
                "first coordinate and some beta a nonpositive second coordinate"
            )
        r = len(self.betas)
        expected = set(product(self.alphabet, repeat=r))
        if set(self.table) != expected:
            raise ValueError("table must be total over alphabet^r")
        if any(v not in self.alphabet for v in self.table.values()):
            raise ValueError("table produces symbols outside the alphabet")
        if set(self.f0) != set(self.module.generators):
            raise ValueError("initial values must be given exactly on the module generators")
        if any(v not in self.alphabet for v in self.f0.values()):
            raise ValueError("initial values outside the alphabet")

    @property
    def num_args(self) -> int:
        return len(self.betas)


def _positive_normal(betas) -> Vec:
    """Smallest strictly positive nu with nu . beta >= 1 for every shift.

    Strict positivity both certifies the common-halfspace requirement and
    bounds the recurrence: each shift drops nu . l by at least 1 and
    nu . l >= 0 on N^2, so evaluation terminates.  A shift (x, y) bounds
    nu0 / nu1 below by -y / x if x > 0 > y and above by y / -x if y > 0 > x;
    nu is the simplest fraction between, whose terms are both least.
    """
    from fractions import Fraction
    lo = max((Fraction(-y, x) for x, y in betas if x > 0 > y), default=Fraction(0))
    hi = min((Fraction(y, -x) for x, y in betas if y > 0 > x), default=None)
    if any(x <= 0 and y <= 0 for x, y in betas) or (hi is not None and lo >= hi):
        raise ValueError("shift vectors do not lie in a common positive-normal halfspace")
    return _simplest_between(lo, hi)


def _simplest_between(lo, hi) -> Vec:
    """(a, b) for the simplest a / b with 0 <= lo < a / b < hi, hi None for no
    bound: n + 1 for n = floor(lo) if that lies below hi, else n + 1 / z for
    z the simplest between 1 / (hi - n) and 1 / (lo - n)."""
    n = int(lo)
    if hi is None or n + 1 < hi:
        return (n + 1, 1)
    a, b = _simplest_between(1 / (hi - n), 1 / (lo - n) if lo > n else None)
    return (n * a + b, a)


def eval_recurrence(spec: RecurrenceSpec, point) -> str:
    """Memoized evaluation of the recurrence at a module point."""
    point = as_vec(point, 2)
    if not spec.module.contains(point):
        raise ValueError(f"{point} is outside the recurrence domain")
    memo = spec._memo
    if point in memo:
        return memo[point]
    stack = [point]
    while stack:
        q = stack[-1]
        if q in memo:
            stack.pop()
            continue
        if spec.module.is_generator(q):
            memo[q] = spec.f0[q]
            stack.pop()
            continue
        shifted = [vsub(q, b) for b in spec.betas]
        if not all(spec.module.contains(t) for t in shifted):
            memo[q] = spec.sigma0
            stack.pop()
            continue
        pending = [t for t in shifted if t not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[q] = spec.table[tuple(memo[t] for t in shifted)]
        stack.pop()
    return memo[point]


def binom_parity_oracle(i: int, j: int) -> str:
    """P iff C(i+j, i) is odd, decided by Lucas: no carries in i + j base 2."""
    if i < 0 or j < 0:
        raise ValueError("arguments must be natural numbers")
    return "P" if (i & j) == 0 else "N"


def used_arguments(spec: RecurrenceSpec) -> set[int]:
    """Indices of arguments the table actually depends on."""
    return {i for i in range(spec.num_args) if _depends_on(spec, spec.table.__getitem__, i)}


def _depends_on(spec: RecurrenceSpec, value, arg: int) -> bool:
    """Whether value(row) changes when only argument arg of some table row changes."""
    for row in product(spec.alphabet, repeat=spec.num_args):
        for sym in spec.alphabet:
            if sym != row[arg] and value(row) != value(row[:arg] + (sym,) + row[arg + 1 :]):
                return True
    return False


def prune_unused_arguments(spec: RecurrenceSpec) -> tuple[RecurrenceSpec, list[int]]:
    """Drop shift vectors the table ignores.

    Returns the reduced spec and the kept argument indices.  The reduced spec
    must still anchor both axes, otherwise the construction cannot satisfy
    its boundary requirements and a ValueError propagates.
    """
    used = sorted(used_arguments(spec))
    if len(used) == spec.num_args:
        return spec, used
    if not used:
        raise ValueError("the table is constant; there is nothing to compute")
    fixed = spec.alphabet[0]
    table = {}
    for row in product(spec.alphabet, repeat=len(used)):
        full = [fixed] * spec.num_args
        for idx, sym in zip(used, row):
            full[idx] = sym
        table[row] = spec.table[tuple(full)]
    reduced = RecurrenceSpec(
        spec.lattice,
        spec.module,
        [spec.betas[i] for i in used],
        spec.alphabet,
        table,
        spec.sigma0,
        spec.f0,
    )
    return reduced, used


class Encoding:
    """Injective symbol encoding into outcome tuples, background all-N."""

    def __init__(self, table: dict):
        self.table = {sym: tuple(bits) for sym, bits in table.items()}
        widths = {len(bits) for bits in self.table.values()}
        if len(widths) != 1:
            raise ValueError("all encodings must have the same width")
        self.s = widths.pop()
        for bits in self.table.values():
            if any(b not in ("P", "N") for b in bits):
                raise ValueError("encodings are tuples over P/N")
        if len(set(self.table.values())) != len(self.table):
            raise ValueError("encoding is not injective")
        self._decode = {bits: sym for sym, bits in self.table.items()}

    def encode(self, sym: str) -> tuple[str, ...]:
        return self.table[sym]

    def decode(self, bits) -> str | None:
        return self._decode.get(tuple(bits))


@dataclass(frozen=True)
class EncodingReport:
    ok: bool
    failures: tuple[str, ...]


def validate_encoding(spec: RecurrenceSpec, enc: Encoding) -> EncodingReport:
    """Check the encoding against the recurrence, naming failed clauses.

    Required: background symbol encodes to all-N; injectivity over the
    alphabet; the first output bit depends on an argument whose shift has
    nonpositive first coordinate, and the last bit symmetrically.
    """
    failures = []
    missing = [s for s in spec.alphabet if s not in enc.table]
    if missing:
        failures.append(f"missing-symbols: {missing}")
        return EncodingReport(False, tuple(failures))
    if enc.encode(spec.sigma0) != ("N",) * enc.s:
        failures.append("sigma0-encoding: enc(sigma0) must be the all-N tuple")

    for bit, coord, tag in ((0, 0, "first"), (enc.s - 1, 1, "last")):
        def bit_of(row):
            return enc.encode(spec.table[row])[bit]

        if not any(
            beta[coord] <= 0 and _depends_on(spec, bit_of, i)
            for i, beta in enumerate(spec.betas)
        ):
            failures.append(
                f"{tag}-bit-dependency: output bit {bit+1} depends on no argument "
                f"whose shift has nonpositive coordinate {coord+1}"
            )
    return EncodingReport(not failures, tuple(failures))


def encoded_table(spec: RecurrenceSpec, enc: Encoding) -> dict:
    """Truth table of the encoded recurrence step on r blocks of s bits.

    Bit blocks outside the encoding image decode to the background symbol, a
    free choice the construction never exercises on reachable inputs.
    """
    r, s = spec.num_args, enc.s
    table = {}
    for bits in product("PN", repeat=r * s):
        syms = []
        for i in range(r):
            block = bits[i * s : (i + 1) * s]
            sym = enc.decode(block)
            syms.append(spec.sigma0 if sym is None else sym)
        table[bits] = enc.encode(spec.table[tuple(syms)])
    return table


# Cellular automata ------------------------------------------------------

CA_ALPHABET = ("0", "1")


def wolfram_rule_table(rule: int) -> dict:
    if not 0 <= rule <= 255:
        raise ValueError("rule number must be in 0..255")
    table = {}
    for a, b, c in product((0, 1), repeat=3):
        idx = a * 4 + b * 2 + c
        table[(str(a), str(b), str(c))] = str((rule >> idx) & 1)
    return table


def simulate_ca(rule_table: dict, quiescent: str, word: str, steps: int):
    """Direct simulation on a quiescent background.

    Returns a lookup fn(x, t) valid for all x and 0 <= t <= steps; cells
    outside the simulated strip are quiescent by the light-cone argument.
    """
    if rule_table[(quiescent, quiescent, quiescent)] != quiescent:
        raise ValueError("the background symbol must be quiescent under the rule")
    lo = -steps - 2
    hi = len(word) + steps + 2
    row = {x: quiescent for x in range(lo, hi)}
    for x, sym in enumerate(word):
        row[x] = sym
    rows = [dict(row)]
    for _ in range(steps):
        nxt = {}
        for x in range(lo + 1, hi - 1):
            nxt[x] = rule_table[(row[x - 1], row[x], row[x + 1])]
        nxt[lo] = quiescent
        nxt[hi - 1] = quiescent
        row = nxt
        rows.append(dict(row))

    def lookup(x: int, t: int) -> str:
        if not 0 <= t <= steps:
            raise ValueError(f"time {t} outside the simulated range")
        return rows[t].get(x, quiescent)

    return lookup


@dataclass(frozen=True)
class CAEmbedding:
    """A CA run realised as a recurrence over the even-sum sublattice."""

    spec: RecurrenceSpec
    rule_table: dict
    quiescent: str
    word: str
    offset: int  # word cell x maps to the module point (x+offset, offset-x)

    def cell_point(self, x: int, t: int) -> Vec:
        return (t + x + self.offset, t - x + self.offset)

    def point_cell(self, point) -> tuple[int, int]:
        p = as_vec(point, 2)
        x = (p[0] - p[1]) // 2
        t = (p[0] + p[1]) // 2 - self.offset
        return x, t


def ca_to_recurrence(rule_table: dict, quiescent: str, word: str) -> CAEmbedding:
    """Embed a radius-1 CA as a recurrence.

    Cell (x, t) maps to l = (t+x+c, t-x+c) on the even-sum sublattice; the
    shifts (2,0), (1,1), (0,2) pull back to the three time-(t-1) neighbours.
    The module is the half-plane sum >= 2c, whose generators are the time-0
    cells; they carry the initial word padded with the quiescent symbol.  The
    margin c = len(word)+1 keeps the word's light cone away from the two-cell
    fringe that falls to the background branch, so evaluation agrees with
    direct simulation on the whole domain.
    """
    symbols = sorted({s for k in rule_table for s in k} | set(rule_table.values()))
    if rule_table.get((quiescent, quiescent, quiescent)) != quiescent:
        raise ValueError("the background symbol must be quiescent under the rule")
    if set(rule_table) != set(product(symbols, repeat=3)):
        raise ValueError("rule table must be total over symbol triples")
    if not word or any(s not in symbols for s in word):
        raise ValueError("the initial word must be a nonempty string over the alphabet")
    c = len(word) + 1
    gens = [(j, 2 * c - j) for j in range(2 * c + 1)]
    module = ModuleIdeal(EVEN_SUM, gens)
    f0 = {}
    for j, g in enumerate(gens):
        x = j - c
        f0[g] = word[x] if 0 <= x < len(word) else quiescent
    spec = RecurrenceSpec(
        lattice=EVEN_SUM,
        module=module,
        betas=[(2, 0), (1, 1), (0, 2)],
        alphabet=symbols,
        table=rule_table,
        sigma0=quiescent,
        f0=f0,
    )
    return CAEmbedding(spec, dict(rule_table), quiescent, word, c)
