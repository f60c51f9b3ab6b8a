"""Method-of-types machinery and the exhaustive small-blocklength oracle.

Types and robustly typical sets over finite alphabets, the exact
sequence-probability identity, the per-letter co-information of a code
pair, and brute-force search over label-canonical code pairs.

Sequences are tuples of symbol indices; a block x_1..x_n maps to the
integer sum x_t * |X|^(n-1-t) (first letter most significant), which is
also the ordering produced by iterated Kronecker products.

Hypothesis-testing reading. For a fixed pair of block codes (f, g),
theta = I(f(x^n); g(z^n)) / n is the per-letter Stein exponent for
testing P_xz against P_x x P_z from the statistics (f(x^n), g(z^n))
(Ahlswede & Csiszar 1986; Han 1987). So best_theta is the best such
exponent over deterministic codes of length n, the distributed test
against independence that the biclustering problem is tied to.

Batching and pruning. best_theta bounds every pair first: by data
processing, theta(f, g) is at most b_f = I(f(x^n); z^n) / n and at most
b_g = I(x^n; g(z^n)) / n. It streams the canonical f strings, then the
g strings, in blocks of at most _BLOCK_CELLS pushed-forward cells, and
one bincount and one batched kernel call (probability.batch_entropies)
give the bounds of a whole block. The pair of the largest b_f and the
largest b_g is scored for a lower bound L, the strings whose bound is
at least L - _MARGIN are kept, and only the pairs of kept strings are
scored: g in blocks, each block run against every kept f, one bincount
pushing the product source forward through every pair (f, g) of the
block and one kernel call giving H(u), H(v) and H(u, v) for all of
them. The first pass keeps each side's first block of bounds, so a side
whose strings fit one block is enumerated and bounded once; a longer
side streams its later blocks a second time to pick the kept strings.
Memory holds two blocks a side and the kept strings, never a list of
all canonical strings. A pair's value depends only on the pair, never
on the block it sits in, the block size or which pairs were pruned, and
theta runs the same routine on a block of one, so theta of the returned
code equals the reported maximum bit for bit.
Ties go to the first pair in the (f, g) enumeration order, f outer,
whatever the block size.
"""

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DomainError, InternalCheckError, NormalizationError, SizeError, SupportError
from .probability import (
    _clamp_measures,
    _is_int,
    _normalized,
    batch_entropies,
    entropy_of_array,
    mutual_information,
)

_STATE_GUARD = 10**7
_CODE_GUARD = 10**8
# cells of pushed-forward tables per block of the code oracle: it bounds the
# memory of one bincount, and no result depends on it
_BLOCK_CELLS = 1 << 16
# H(u), H(v), H(u, v) of a pushed-forward (u, v) table
_UV_GROUPS = ((0,), (1,), (0, 1))
# nats per letter by which best_theta's pruning rule undercuts its lower
# bound. A theta and a bound are both _thetas' I(u; v) / n of a pushforward
# of the product table, whose N <= _STATE_GUARD = 1e7 cells are nonnegative
# and sum to 1. Each bincount adds at most N terms in order, so a table
# cell or a marginal cell is off by at most about 3 N 2^-53 = 3.3e-9 of
# itself (two sums and the renormalization); relative errors e of the
# cells move -sum p log p by at most max|e| (H + 1) <= 3.3e-9 (ln N + 1)
# = 5.7e-8, and the sum of at most N terms m log m adds at most
# N 2^-53 H <= 1.8e-8. So an entropy is within 7.5e-8 nats, I = H(u) +
# H(v) - H(u, v) within 2.3e-7, and a theta and a bound together within
# 4.5e-7, less per letter for n > 1: the margin is twice that
_MARGIN = 1e-6


def _check_positive(name, v):
    if not _is_int(v) or v < 1:
        raise DomainError(f"{name} must be a positive integer, got {v!r}")


def _check_delta(delta):
    # an infinite delta is accepted: it keeps every block of the support
    if isinstance(delta, bool) or not isinstance(delta, (int, float)) or not delta >= 0.0:
        raise DomainError(f"delta must be a nonnegative real number, got {delta!r}")


@dataclass(frozen=True)
class TypeClass:
    """Empirical symbol counts of a length-n block."""

    counts: tuple
    n: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if not counts:
            raise SizeError("a TypeClass needs at least one symbol slot")
        if any(c < 0 for c in counts):
            raise DomainError(f"counts must be nonnegative, got {counts}")
        _check_positive("blocklength", self.n)
        if sum(counts) != self.n:
            raise DomainError(f"counts {counts} do not sum to the blocklength {self.n}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _unchecked(cls, counts, n):
        # a TypeClass without __post_init__'s checks, for enumerate_types
        # alone: its counts are a tuple of ints >= 0 that sum to n >= 1 by
        # construction, so the checks could only repeat themselves
        t = object.__new__(cls)
        object.__setattr__(t, "counts", counts)
        object.__setattr__(t, "n", n)
        return t

    @property
    def pmf(self):
        return np.array(self.counts, dtype=float) / self.n

    def sequence_count(self):
        """Number of blocks with this type (exact multinomial integer)."""
        total = math.factorial(self.n)
        for c in self.counts:
            total //= math.factorial(c)
        return total


@dataclass(frozen=True)
class CodeSpec:
    """A pair of total lookup tables indexing blocks to bin labels 0..m-1."""

    n: int
    f: tuple
    g: tuple
    m1: int
    m2: int

    def __post_init__(self):
        _check_positive("blocklength", self.n)
        for name in ("m1", "m2"):
            _check_positive(name, getattr(self, name))
        f = tuple(int(v) for v in self.f)
        g = tuple(int(v) for v in self.g)
        if not f or not g:
            raise SizeError("lookup tables must be total (nonempty)")
        if any(not 0 <= v < self.m1 for v in f):
            raise DomainError(f"f values must lie in [0, {self.m1})")
        if any(not 0 <= v < self.m2 for v in g):
            raise DomainError(f"g values must lie in [0, {self.m2})")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


def type_of(seq, alphabet_size):
    """Empirical type of a symbol sequence."""
    seq = tuple(int(s) for s in seq)
    if not seq:
        raise SizeError("type_of needs a nonempty sequence")
    _check_positive("alphabet_size", alphabet_size)
    counts = [0] * alphabet_size
    for s in seq:
        if not 0 <= s < alphabet_size:
            raise DomainError(f"symbol {s} outside alphabet of size {alphabet_size}")
        counts[s] += 1
    return TypeClass(tuple(counts), len(seq))


def enumerate_types(alphabet_size, n):
    """All types of length-n blocks, first count descending."""
    _check_positive("alphabet_size", alphabet_size)
    _check_positive("blocklength", n)
    total = math.comb(n + alphabet_size - 1, alphabet_size - 1)
    if total > _CODE_GUARD:
        raise SizeError(
            f"{total} types of {alphabet_size}-ary length-{n} blocks exceed the "
            f"enumeration budget {_CODE_GUARD}"
        )
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(TypeClass._unchecked(prefix + (remaining,), n))
            return
        for c in range(remaining, -1, -1):
            rec(prefix + (c,), remaining - c, slots - 1)

    rec((), n, alphabet_size)
    return out


def _check_pmf_vector(p):
    # a pmf vector under probability's shared mass rule (_normalized), with
    # the dtype-kind rule of probability.binary_entropy_inverses first: a
    # bool, str or object array is not a vector of reals, whatever it
    # converts to. Every rejection is a DomainError
    p = np.asarray(p)
    if p.dtype.kind not in "iuf":
        raise DomainError(f"pmf must hold real numbers, got dtype {p.dtype}")
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DomainError("pmf must be a nonempty vector")
    try:
        return _normalized(p)
    except NormalizationError as exc:
        raise DomainError(f"pmf: {exc}") from None


def _type_is_typical(counts, n, p, delta):
    for c, pk in zip(counts, p):
        if abs(c / n - pk) > delta * pk:
            return False
    return True


def typical_set(pmf, n, delta):
    """All length-n blocks whose type is entrywise relatively delta-close.

    Membership requires |type(x) - p(x)| <= delta * p(x) for every symbol,
    so symbols with zero probability may not occur at all. Yields blocks
    in lexicographic order.
    """
    p = _check_pmf_vector(pmf)
    _check_positive("blocklength", n)
    _check_delta(delta)
    a = p.size
    if a**n > _STATE_GUARD:
        raise SizeError(f"{a}^{n} blocks exceed the enumeration budget {_STATE_GUARD}")
    for seq in itertools.product(range(a), repeat=n):
        counts = [0] * a
        for s in seq:
            counts[s] += 1
        if _type_is_typical(counts, n, p, delta):
            yield seq


def typical_set_size(pmf, n, delta):
    """|T_delta| by summing multinomial sizes over qualifying types."""
    p = _check_pmf_vector(pmf)
    _check_positive("blocklength", n)
    _check_delta(delta)
    total = 0
    for t in enumerate_types(p.size, n):
        if _type_is_typical(t.counts, n, p, delta):
            total += t.sequence_count()
    return total


def sequence_probability_identity_check(pmf, seq):
    """Residual of log P(block) = -n (H(type) + D(type || pmf)).

    The left side multiplies letter probabilities, the right side goes
    through the type; both are exact in theory, so the residual is float
    noise and must be tiny.
    """
    p = _check_pmf_vector(pmf)
    seq = tuple(int(s) for s in seq)
    if not seq:
        raise SizeError("the sequence must be nonempty")
    log_p = 0.0
    for s in seq:
        if not 0 <= s < p.size:
            raise DomainError(f"symbol {s} outside alphabet of size {p.size}")
        if p[s] == 0.0:
            raise SupportError(f"symbol {s} observed but has zero probability")
        log_p += math.log(p[s])
    t = type_of(seq, p.size)
    n = len(seq)
    t_pmf = t.pmf
    pos = t_pmf > 0.0
    h_hat = entropy_of_array(t_pmf)
    div = float(np.sum(t_pmf[pos] * np.log(t_pmf[pos] / p[pos])))
    return abs(log_p - (-n * (h_hat + div)))


def _product_table(pxz, n):
    table = pxz
    for _ in range(n - 1):
        table = np.kron(table, pxz)
    return table


def _thetas(table, n, f, gs, m1, m2):
    """Theta of the code pairs (f, g) for each row g of gs, as an array.

    table is the (|X|^n, |Z|^n) product source, f an index vector and gs
    a (rows, |Z|^n) index array. One bincount pushes the table forward
    through every pair at once: cell (x, z) of row r lands in bin
    r*m1*m2 + f(x)*m2 + g_r(z), and each bin adds its cells in (x, z) C
    order. Each row then gets JointPmf's checks and renormalization, and
    one batched kernel call gives H(u), H(v) and H(u, v) for all rows.
    Row r depends only on (f, gs[r]), never on the other rows.
    """
    rows, cells = gs.shape[0], m1 * m2
    target = (np.arange(rows) * cells)[:, None, None] + (f * m2)[None, :, None] + gs[:, None, :]
    weights = np.broadcast_to(table, (rows,) + table.shape).ravel()
    w = np.bincount(target.ravel(), weights=weights, minlength=rows * cells)
    w = _normalized(w.reshape(rows, cells), axis=1)
    h = batch_entropies(w.reshape(rows, m1, m2), _UV_GROUPS)
    return _clamp_measures(h[:, 0] + h[:, 1] - h[:, 2]) / n


def theta(p_xz, code):
    """Per-letter mutual information between the two bin indices.

    Exact pushforward of the n-fold product source through the lookup
    tables. This is best_theta's routine run on a block of one pair, so
    theta of the code best_theta returns equals its value bit for bit.
    """
    if len(p_xz.axes) != 2:
        raise DomainError(f"theta needs a two-axis source, got {p_xz.labels}")
    nx, nz = p_xz.mass.shape
    n = code.n
    if nx**n * nz**n > _STATE_GUARD:
        raise SizeError(
            f"{nx}^{n} * {nz}^{n} joint blocks exceed the enumeration budget {_STATE_GUARD}"
        )
    if len(code.f) != nx**n:
        raise DomainError(f"f table has {len(code.f)} entries, expected {nx}**{n}")
    if len(code.g) != nz**n:
        raise DomainError(f"g table has {len(code.g)} entries, expected {nz}**{n}")
    table = _product_table(p_xz.mass, n)
    f = np.array(code.f, dtype=np.intp)
    gs = np.array([code.g], dtype=np.intp)
    return float(_thetas(table, n, f, gs, code.m1, code.m2)[0])


def _rgs_count(length, max_labels):
    # restricted growth strings of a given length using at most max_labels
    row = {0: 1}
    for _ in range(length):
        nxt = {}
        for used, ways in row.items():
            if used > 0:
                nxt[used] = nxt.get(used, 0) + ways * used
            if used < max_labels:
                nxt[used + 1] = nxt.get(used + 1, 0) + ways
        row = nxt
    return sum(row.values())


def _rgs_strings(length, max_labels):
    seq = [0] * length

    def rec(pos, used):
        if pos == length:
            yield tuple(seq)
            return
        for v in range(min(used + 1, max_labels)):
            seq[pos] = v
            yield from rec(pos + 1, max(used, v + 1))

    yield from rec(0, 0)


def _bounds(table, n, strings, m, block, pos=0):
    """(position, string, bound) of each code string, a block at a time.

    A string s maps the column index c of table to m labels, and its
    bound is I(r; s(c)) / n for the row index r: _thetas with the
    identity code on the rows, one bincount and one kernel call a block.
    Positions count from pos.
    """
    rows = table.shape[0]
    ident = np.arange(rows, dtype=np.intp)
    while chunk := list(itertools.islice(strings, block)):
        bounds = _thetas(table, n, ident, np.array(chunk, dtype=np.intp), rows, m)
        yield from zip(range(pos, pos + len(chunk)), chunk, bounds.tolist())
        pos += len(chunk)


def _side_bounds(table, n, length, m, count, block):
    """best_theta's two passes over one side's bounds.

    The side is the count canonical strings of the given length over m
    labels, bounded against table. Returns the string of the largest
    bound (the first of equal ones) and a function that lists the
    (position, string, bound) triples whose bound is at least a floor.
    The first pass keeps its first block of triples, so a side of one
    block is enumerated and bounded once; a longer side streams its
    later blocks a second time, and holds one block beyond the stream.
    """
    stream = _bounds(table, n, _rgs_strings(length, m), m, block)
    first = list(itertools.islice(stream, block))
    top = max(itertools.chain(first, stream), key=itemgetter(2))[1]

    def kept(floor):
        rest = ()
        if count > block:
            later = itertools.islice(_rgs_strings(length, m), block, None)
            rest = _bounds(table, n, later, m, block, block)
        return [t for t in itertools.chain(first, rest) if t[2] >= floor]

    return top, kept


def best_theta(p_xz, n, m1, m2):
    """Exhaustive maximum of theta over all deterministic code pairs.

    Theta is invariant under relabeling of either index set, so only
    label-canonical tables (restricted growth strings) are enumerated;
    ties go to the earliest pair in the (f, g) enumeration order, f
    outer. By data processing, theta(f, g) <= b_f = I(f(x^n); z^n) / n
    and theta(f, g) <= b_g = I(x^n; g(z^n)) / n. The pair of the largest
    b_f and the largest b_g gives a lower bound L on the maximum, and
    only pairs with both bounds at least L - _MARGIN are scored, g in
    blocks (see the module docstring). Each side's first block of
    bounds is computed once and kept for the keep rule (_side_bounds),
    so a side of one block is never enumerated or bounded again. _MARGIN exceeds the rounding of a
    computed theta and a computed bound together, so every pair whose
    computed theta reaches L is scored, each tied maximizer included,
    and a scored pair gets the float that the full scan gives it: the
    value and the code are the full scan's bit for bit.
    """
    if len(p_xz.axes) != 2:
        raise DomainError(f"best_theta needs a two-axis source, got {p_xz.labels}")
    _check_positive("blocklength", n)
    _check_positive("m1", m1)
    _check_positive("m2", m2)
    nx, nz = p_xz.mass.shape
    if nx**n * nz**n > _STATE_GUARD:
        raise SizeError(
            f"{nx}^{n} * {nz}^{n} joint blocks exceed the enumeration budget {_STATE_GUARD}"
        )
    len_f, len_g = nx**n, nz**n
    count_f, count_g = _rgs_count(len_f, m1), _rgs_count(len_g, m2)
    pruned = count_f * count_g
    if pruned > _CODE_GUARD:
        raise SizeError(
            f"{pruned} canonical code pairs (raw count {m1**len_f * m2**len_g}) "
            f"exceed the search budget {_CODE_GUARD}"
        )
    table = _product_table(p_xz.mass, n)
    table_zx = np.ascontiguousarray(table.T)
    i_xz = mutual_information(p_xz, p_xz.labels[0], p_xz.labels[1])
    block = max(1, _BLOCK_CELLS // table.size)
    f_top, f_keep = _side_bounds(table_zx, n, len_f, m1, count_f, block)
    g_top, g_keep = _side_bounds(table, n, len_g, m2, count_g, block)
    # the lower bound is a scored pair
    top = _thetas(table, n, np.array(f_top, dtype=np.intp), np.array([g_top], dtype=np.intp), m1, m2)
    floor = float(top[0]) - _MARGIN
    f_kept = [(pos, f, np.array(f, dtype=np.intp)) for pos, f, _ in f_keep(floor)]
    g_kept = [(pos, g) for pos, g, _ in g_keep(floor)]
    best_val, best_at, best_pair = -math.inf, None, None
    for start in range(0, len(g_kept), block):
        g_block = g_kept[start : start + block]
        gs = np.array([g for _, g in g_block], dtype=np.intp)
        for f_pos, f, f_arr in f_kept:
            vals = _thetas(table, n, f_arr, gs, m1, m2)
            i = int(np.argmax(vals))  # the first maximum of the block
            at = (f_pos, g_block[i][0])
            if vals[i] > best_val or (vals[i] == best_val and at < best_at):
                best_val, best_at, best_pair = float(vals[i]), at, (f, g_block[i][1])
    cap = min(math.log(m1) / n, math.log(m2) / n, i_xz)
    if not best_val <= cap + 1e-12:
        raise InternalCheckError(
            f"best theta {best_val} exceeds min(log m1 / n, log m2 / n, I(x;z)) = {cap}"
        )
    return best_val, CodeSpec(n, best_pair[0], best_pair[1], m1, m2)
