"""Finite discrete laws, parametric families, and finite joint laws.

Discrete objects store both values and probabilities as `fractions.Fraction`,
so every comparison downstream (order checks, dependence conditions, coupling
feasibility) is exact.  Ints, rational strings and Fractions convert losslessly;
a float converts to the dyadic rational it actually is.

Canonicalisation is integer work, one pass per column.  normalize and
normalize_joint scale all values (w and z separately) and all weights of one
call to integers over the lcm of their distinct denominators (a column with
one denominator keeps its numerators, with no scaling pass), merge
duplicates in an int-keyed dict and sort the int keys; the marginals and
joint_sum merge the joint's integers alike.  The input loop notes whether
every weight is an int: such a column stands over 1 as it is, with no second
scan.  A joint cell's key is one int, w S + z with S one more than the
spread of the z integers: a step of w then outweighs any step of z, so the
keys order as the (w, z) cells do.  Keys that arrive strictly ascending are
already merged and sorted: they skip the dict and the sort, and the law's
invariant check reads those keys instead of building them again.  The
merge's integers become the law's integer form, the weights over their gcd
(over 1 they stand as they are), and each distinct probability is built
once and shared by its atoms.

Each finite law holds its integer form, ints, a field outside ==, hash and
repr: for a DiscreteDist its values over the lcm V of their denominators and
its probabilities over the lcm D of theirs, for a JointDist the w, z and p
columns over VW, VZ and D; exactly what as_integers makes of each public
column, so no layer rescales a law per call.  The builders check their own
integers.  The public constructors validate hand-built atoms: they compute
ints once and check over them what they always checked, with the same
messages: Fraction types, positive probabilities, strictly increasing values
or distinct joint cells, total mass 1.  The first defective atom decides.

The parametric families (Normal, Exponential, Bernoulli, LogNormal,
PointMass) carry float parameters.  A finite law is exact everywhere: mean,
affine and discretize (and risk.es / phi / stop_loss) ask as_discrete for
the exact law, which a Bernoulli or a point mass has, and work over its
atoms.  Only the continuous families hold binary64 closed forms, as methods:
each of Normal, Exponential and LogNormal its es, stop_loss and mean, and
the Exponential and the LogNormal their quantile_right for discretize.  The
argument is rounded to a float once (_real), and a result beyond binary64 is
an input error (_closed_form).  affine is exact on finite laws and not
defined on a continuous family.  The codecs read one table of family kinds.

Quantiles follow the right-quantile convention

    Q(t) = inf { x : P(X <= x) > t },

with strict inequality.  The choice matters exactly at atoms, and expected
shortfall / the order checkers assume it.
"""

from __future__ import annotations

import math
import operator
import reprlib
import sys
from dataclasses import FrozenInstanceError, asdict, dataclass, field, fields
from fractions import Fraction
from itertools import chain, count, repeat
from typing import Callable, Iterable, NamedTuple, Sequence, Union

__all__ = [
    "StochOrderError",
    "InputError",
    "IrrelevantThresholdError",
    "UnsupportedPairingError",
    "InternalError",
    "as_fraction",
    "DiscreteDist",
    "LawInts",
    "JointInts",
    "Normal",
    "Exponential",
    "Bernoulli",
    "LogNormal",
    "PointMass",
    "Dist",
    "JointDist",
    "normalize",
    "normalize_joint",
    "point_mass_dist",
    "as_discrete",
    "mean",
    "affine",
    "joint_marginal_w",
    "joint_sum",
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "discretize",
    "rational_to_json",
    "dist_to_json",
    "dist_from_json",
    "joint_to_json",
    "joint_from_json",
]

RationalLike = Union[int, str, float, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class StochOrderError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(StochOrderError, ValueError):
    """Invalid argument: domain violation, malformed schema, bad parameter."""


class IrrelevantThresholdError(InputError):
    """The conditioning event at the requested threshold has probability zero."""


class UnsupportedPairingError(InputError):
    """The operation is not defined for this combination of distribution kinds."""


class InternalError(StochOrderError, RuntimeError):
    """Two routes that must agree did not: a defect here, not in the input.

    routes maps each route's name to its output (for a Normal tail scan that
    found no witness: the closed form's holds flag and None); inputs holds
    the arguments.
    """

    def __init__(self, message: str, routes: dict[str, object], inputs: object) -> None:
        super().__init__(message)
        self.routes, self.inputs = routes, inputs


# Bounds on rational strings.  Parsing a decimal string is quadratic in its
# length, and an exponent expands to 10**exp ("1e1000000" took 0.34 s).  The
# exponent and the digits of the numerator and the denominator built are
# capped at CPython's default limit on the digits of an int string, and the
# length at that of such a ratio printed with its sign, so that every
# accepted string prints back and reads back in.
_MAX_DIGITS = 4300
_MAX_CHARS = 2 * _MAX_DIGITS + 2
_DIGIT_BOUND = 10**_MAX_DIGITS


def as_fraction(x: RationalLike) -> Fraction:
    """Convert exactly to Fraction.

    Floats map to the dyadic rational they represent in binary64; strings may
    be either decimal ("0.25", "2.5e-3") or ratio ("1/4") form, at most
    _MAX_CHARS characters, with an exponent of magnitude at most _MAX_DIGITS
    and a result of at most _MAX_DIGITS digits above and below the line.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError("booleans are not numeric values")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputError(f"non-finite value {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if len(s) > _MAX_CHARS:
            raise InputError(f"rational string of {len(s)} characters exceeds {_MAX_CHARS}")
        exp = s.lower().partition("e")[2]
        try:
            q = Fraction(s) if not exp or abs(int(exp)) <= _MAX_DIGITS else None
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {x!r}") from exc
        if q is None:
            raise InputError(f"exponent of {x!r} exceeds {_MAX_DIGITS} in magnitude")
        if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
            raise InputError(f"{x!r} has more than {_MAX_DIGITS} digits above or below the line")
        return q
    raise InputError(f"cannot interpret {x!r} as a rational")


# ---------------------------------------------------------------------------
# Distribution types
# ---------------------------------------------------------------------------


class LawInts(NamedTuple):
    """Value k is values[k] / V, its probability weights[k] / D."""

    values: tuple[int, ...]
    V: int
    weights: tuple[int, ...]
    D: int


class JointInts(NamedTuple):
    """Cell k is (w[k] / VW, z[k] / VZ), its probability p[k] / D."""

    w: tuple[int, ...]
    VW: int
    z: tuple[int, ...]
    VZ: int
    p: tuple[int, ...]
    D: int

    def combined(self, sign: int = 1) -> tuple[list[int], int]:
        """W + sign * Z at every cell, over L = lcm(VW, VZ), and L."""
        L = math.lcm(self.VW, self.VZ)
        a, b = L // self.VW, sign * (L // self.VZ)
        return [w * a + z * b for w, z in zip(self.w, self.z)], L


def rescale(ints: tuple[int, ...], k: int) -> tuple[int, ...] | list[int]:
    """ints moved onto a scale k times finer (ints itself when k is 1)."""
    return ints if k == 1 else [i * k for i in ints]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class _Record:
    """A frozen record's ==, hash, repr and refusal of assignment, written once.

    They behave as @dataclass(frozen=True)'s: == holds only within one class,
    over the compared fields; hash and repr are those of the same tuple and
    text; assigning or deleting raises FrozenInstanceError.  A frozen
    dataclass compiles these methods and its __init__ with exec for each
    class at import; a record shares these and writes its own __init__,
    which sets its fields with object.__setattr__ and checks them.
    """

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record(cls: type) -> type:
    """cls, a _Record, as a dataclass whose methods are _Record's and its own:
    dataclass(init=False, repr=False, eq=False) compiles nothing but registers
    the fields, so fields, asdict, astuple and replace work on it."""
    dataclass(init=False, repr=False, eq=False)(cls)
    cls._compared = tuple([f.name for f in fields(cls) if f.compare])
    cls._shown = tuple([f.name for f in fields(cls) if f.repr])
    return cls


@_record
class DiscreteDist(_Record):
    """Finite law: atoms sorted by value, positive probabilities, total mass 1.

    Construct through normalize(); the constructor validates and sets ints.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]
    ints: LawInts = field(init=False, repr=False, compare=False)

    def __init__(self, atoms: tuple[tuple[Fraction, Fraction], ...]) -> None:
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise InputError("discrete law needs at least one atom")
        ok, ((xs, V), (ws, D)) = _integer_columns(atoms, 2)
        for k in range(ok):
            if ws[k] <= 0:
                raise InputError(f"atom probability must be positive, got {atoms[k][1]}")
            if k and xs[k] <= xs[k - 1]:
                raise InputError("atom values must be strictly increasing")
        if ok < len(atoms):
            raise InputError("atoms must hold Fraction values and probabilities")
        _check_total(ws, D)
        object.__setattr__(self, "ints", LawInts(tuple(xs), V, tuple(ws), D))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple([v for v, _ in self.atoms])

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple([p for _, p in self.atoms])

    def support_size(self) -> int:
        return len(self.atoms)


class _Family(_Record):
    """A parametric family, its kind the JSON "type".  A continuous family
    holds its binary64 closed forms as methods (es, stop_loss and mean; the
    Exponential and the LogNormal also quantile_right, which discretize
    reads); a finite one (Bernoulli, PointMass) holds none, since
    as_discrete is its exact law."""


@_record
class Normal(_Family):
    """Normal law N(mu, sigma^2)."""

    mu: float
    sigma: float
    kind = "normal"

    def __init__(self, mu: float, sigma: float) -> None:
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        _check_finite("mu", mu)
        _check_finite("sigma", sigma)
        if sigma <= 0:
            raise InputError(f"sigma must be positive, got {sigma}")

    def mean(self) -> float:
        return self.mu

    def es(self, p: float) -> float:
        if p == 0.0:
            return self.mu
        z = norm_quantile(p)
        return self.mu + self.sigma * norm_pdf(z) / (1.0 - p)

    def stop_loss(self, t: float) -> float:
        z = (self.mu - t) / self.sigma
        return (self.mu - t) * norm_cdf(z) + self.sigma * norm_pdf(z)


@_record
class Exponential(_Family):
    """Exponential law with the given rate (mean 1 / rate)."""

    rate: float
    kind = "exponential"

    def __init__(self, rate: float) -> None:
        object.__setattr__(self, "rate", rate)
        _check_finite("rate", rate)
        if rate <= 0:
            raise InputError(f"rate must be positive, got {rate}")

    def quantile_right(self, t: float) -> float:
        return -math.log1p(-t) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def es(self, p: float) -> float:
        # integral of -ln(1-t)/rate over (p,1) gives (1 - ln(1-p))/rate
        return (1.0 - math.log1p(-p)) / self.rate

    def stop_loss(self, t: float) -> float:
        if t <= 0.0:
            return 1.0 / self.rate - t
        return math.exp(-self.rate * t) / self.rate


@_record
class Bernoulli(_Family):
    """Two-point law on {0, 1} with P(X = 1) = q."""

    q: float
    kind = "bernoulli"

    def __init__(self, q: float) -> None:
        object.__setattr__(self, "q", q)
        _check_finite("q", q)
        if not 0.0 <= q <= 1.0:
            raise InputError(f"q must lie in [0, 1], got {q}")


@_record
class LogNormal(_Family):
    """Law of exp(Y) for Y normal N(mu, sigma^2)."""

    mu: float
    sigma: float
    kind = "lognormal"

    def __init__(self, mu: float, sigma: float) -> None:
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        _check_finite("mu", mu)
        _check_finite("sigma", sigma)
        if sigma <= 0:
            raise InputError(f"sigma must be positive, got {sigma}")

    def quantile_right(self, t: float) -> float:
        return math.exp(self.mu + self.sigma * norm_quantile(t))

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma * self.sigma)

    def es(self, p: float) -> float:
        m = math.exp(self.mu + 0.5 * self.sigma**2)
        if p == 0.0:
            return m
        z = norm_quantile(p)
        return m * norm_cdf(self.sigma - z) / (1.0 - p)

    def stop_loss(self, t: float) -> float:
        m = math.exp(self.mu + 0.5 * self.sigma**2)
        if t <= 0.0:
            return m - t
        z = (math.log(t) - self.mu) / self.sigma
        return m * norm_cdf(self.sigma - z) - t * norm_cdf(-z)


@_record
class PointMass(_Family):
    """Degenerate law: all mass at c."""

    c: float
    kind = "point"

    def __init__(self, c: float) -> None:
        object.__setattr__(self, "c", c)
        _check_finite("c", c)


Dist = Union[DiscreteDist, Normal, Exponential, Bernoulli, LogNormal, PointMass]


def _check_finite(name: str, x: object) -> float:
    """float(x) for a finite real x; x itself is left as given."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputError(f"{name} must be a real number, got {x!r}")
    if not abs(x) <= sys.float_info.max:
        raise InputError(f"{name} must be finite, got {x!r}")
    return float(x)


def _real(x: RationalLike, name: str) -> float:
    """x, named name, as a closed form takes it: a float as given, the rest rounded once."""
    if isinstance(x, float):
        return x
    q = as_fraction(x)
    try:
        return float(q)
    except OverflowError:
        raise InputError(f"{name} near 2**{int(abs(q)).bit_length()} exceeds binary64") from None


def _closed_form(law: _Family, f: Callable[..., float], *x: float) -> float:
    """f(*x), a binary64 closed form of the continuous family law at no point
    or one: an overflow or a non-finite result is an input error, as _real
    makes one of an argument beyond binary64."""
    try:
        y = f(*x)
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        at = "".join(f" at {v!r}" for v in x)
        raise InputError(f"{f.__name__} of {law!r}{at} exceeds binary64")
    return y


def _family(d: object) -> _Family:
    if not isinstance(d, _Family):
        raise InputError(f"unknown distribution {d!r}")
    return d


def normalize(raw_atoms: Iterable[tuple[RationalLike, RationalLike]]) -> DiscreteDist:
    """Build a canonical discrete law from (value, weight) pairs.

    Weights must be nonnegative with positive total; they are rescaled to sum
    to one.  Duplicate values merge, zero-weight atoms drop.  Atoms that
    arrive with strictly ascending values are the law's order as they stand
    and take no merge (see _merged).
    """
    values, weights, all_int = [], [], True
    for value, weight in raw_atoms:
        v = value if type(value) is Fraction else as_fraction(value)
        if type(weight) is int:
            w = n = weight
        else:
            w = as_fraction(weight)
            n, all_int = w.numerator, False
        if n < 0:
            raise InputError(f"negative weight {w} at value {v}")
        if n:
            values.append(v)
            weights.append(w)
    keys, V = as_integers(values)
    return _merged(keys, (V,), (values,), weights if all_int else as_integers(weights)[0])


def as_integers(xs: Sequence[Fraction | int]) -> tuple[Sequence[int], int]:
    """The rationals xs as integers over the lcm L of their denominators, and
    L: xs[k] == ints[k] / L.  A column of plain ints, or an empty one, is its
    own integer form: xs itself, over L = 1.  Otherwise L is the lcm of the
    distinct denominators, and where there is one (L itself, 1 for integers)
    the numerators are the integers, with no scaling pass."""
    # the first atom settles a column of Fractions, the usual case, at no cost
    if not xs or type(xs[0]) is int and all(map(operator.is_, map(type, xs), repeat(int))):
        return xs, 1
    ratios = [x.as_integer_ratio() for x in xs]
    dens = {d for _, d in ratios}
    if len(dens) == 1:
        return [n for n, _ in ratios], dens.pop()
    L = math.lcm(*dens)
    return [n * (L // d) for n, d in ratios], L


def _reduced(keys: list[int], V: int) -> tuple[tuple[int, ...], int]:
    """keys / V as integers over the least scale, and that scale."""
    g = math.gcd(V, *keys)
    return (tuple(keys), V) if g == 1 else (tuple([k // g for k in keys]), V // g)


def _merged(keys: Sequence[int], scales: tuple[int, ...], cols: Sequence[Sequence],
            weights: Sequence[int]) -> DiscreteDist | JointDist:
    """The law of cells with positive integer weights, merged by int keys that
    order as the cells do: values over the least scale V (scales (V,); cols
    their Fractions, or none to make them keys / V) or (w, z) cells over the
    least (VW, VZ) (cols: w and z as Fractions, then as integers).  The int
    columns, the merged weights over their gcd g and D = total / g are what
    as_integers makes of the public columns: the ints.  Strictly ascending keys
    stand as they are, and a joint's invariant check reads them; others merge
    (_merge), each with its first cell's columns, a law's values being the keys
    at those cells, so the check over the gathered columns covers the indices."""
    order, ms, at = _merge(keys, weights)
    if at is not None:
        cols = [map(col.__getitem__, at) for col in cols]
    if not order:
        raise InputError("total weight must be positive")
    T = sum(ms)
    # T first: the weights may share most factors where T shares few, and a gcd of 1 skips the rest
    g = math.gcd(T, *ms)
    ps, D = (tuple(ms), T) if g == 1 else (tuple([m // g for m in ms]), T // g)
    shared = dict.fromkeys(ps)  # one Fraction per distinct weight, shared by its atoms
    for p in shared:
        shared[p] = Fraction(p, D)
    probs = map(shared.__getitem__, ps)
    if len(scales) == 1:
        xs = tuple(order) if at is None else tuple(map(keys.__getitem__, at))
        values = cols[0] if cols else [Fraction(x, scales[0]) for x in xs]
        return _trusted(DiscreteDist, tuple(zip(values, probs)), LawInts(xs, scales[0], ps, D))
    w, z, ws, zs = cols
    ints = JointInts(tuple(ws), scales[0], tuple(zs), scales[1], ps, D)
    return _trusted(JointDist, tuple(zip(w, z, probs)), ints, order if at is None else None)


def _merge(keys: Sequence[int], weights: Sequence[int]
           ) -> tuple[Sequence[int], Sequence[int], list[int] | None]:
    """Cells with int keys that order as the cells do, merged: the distinct keys
    ascending, their summed weights and the index of each key's first cell.
    Strictly ascending keys stand as they are, with None for the indices; others
    merge in a dict and sort."""
    if all(map(operator.lt, keys, keys[1:])):
        return keys, weights, None
    acc, first = {}, {}
    for k, i, m in zip(keys, count(), weights):
        if k in acc:
            acc[k] += m
        else:
            acc[k], first[k] = m, i
    order = sorted(acc)
    return order, list(map(acc.__getitem__, order)), list(map(first.__getitem__, order))


def _cell_keys(ws: Sequence[int], zs: Sequence[int]) -> list[int]:
    """One int key per joint cell, ordered as the (w, z) pairs (see the module docstring)."""
    S = max(zs) - min(zs) + 1 if zs else 1
    return [w * S + z for w, z in zip(ws, zs)]


def _trusted(cls: type, atoms: tuple, ints: LawInts | JointInts,
             keys: Sequence[int] | None = None) -> DiscreteDist | JointDist:
    """A cls of atoms built here with their integer form ints, checked over ints (positive
    weights summing to D, strictly ascending values or cell keys): a breach is a defect
    here.  A joint's keys are the ones its cells were merged by when the caller hands
    them in (cells that arrived ascending), and are computed from ints otherwise."""
    ps, D = ints[-2:]
    if keys is None:
        keys = ints.values if cls is DiscreteDist else _cell_keys(ints.w, ints.z)
    if min(ps) <= 0 or sum(ps) != D or not all(map(operator.lt, keys, keys[1:])):
        raise InternalError("a canonical law breaks its invariants", {"ints": ints}, atoms)
    law = object.__new__(cls)
    object.__setattr__(law, "atoms", atoms)
    object.__setattr__(law, "ints", ints)
    return law


def point_mass_dist(value: RationalLike) -> DiscreteDist:
    return DiscreteDist(((as_fraction(value), _ONE),))


def as_discrete(d: Dist) -> DiscreteDist | None:
    """The exact law of a finite kind (a Bernoulli or a point mass included);
    None for a continuous family.  The one test of whether a law is finite."""
    if isinstance(d, DiscreteDist):
        return d
    if isinstance(d, PointMass):
        return point_mass_dist(as_fraction(d.c))
    if isinstance(d, Bernoulli):
        q = as_fraction(d.q)
        return normalize([(0, 1 - q), (1, q)])
    return None


# ---------------------------------------------------------------------------
# Joint laws
# ---------------------------------------------------------------------------


@_record
class JointDist(_Record):
    """Finite joint law of a pair (W, Z): distinct (w, z) atoms, total mass 1."""

    atoms: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (w, z, prob)
    ints: JointInts = field(init=False, repr=False, compare=False)

    def __init__(self, atoms: tuple[tuple[Fraction, Fraction, Fraction], ...]) -> None:
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise InputError("joint law needs at least one atom")
        ok, ((ws, VW), (zs, VZ), (ps, D)) = _integer_columns(atoms, 3)
        seen: set[tuple[int, int]] = set()
        for k, key in enumerate(zip(ws, zs)):
            if ps[k] <= 0:
                raise InputError(f"atom probability must be positive, got {atoms[k][2]}")
            if key in seen:
                raise InputError(f"duplicate joint atom at (w={atoms[k][0]}, z={atoms[k][1]})")
            seen.add(key)
        if ok < len(atoms):
            raise InputError("joint atoms must hold Fractions")
        _check_total(ps, D)
        object.__setattr__(self, "ints", JointInts(tuple(ws), VW, tuple(zs), VZ, tuple(ps), D))


def _integer_columns(atoms: tuple, width: int) -> tuple[int, list[tuple[list[int], int]]]:
    """ok, the number of leading atoms that hold only Fractions, and
    as_integers of each of their width columns: a validator checks these
    atoms before it raises atom ok's type error, so the first defect wins."""
    ok = len(atoms)
    if not all(map(isinstance, chain.from_iterable(atoms), repeat(Fraction))):
        ok = next(k for k, atom in enumerate(atoms) if not all(isinstance(f, Fraction) for f in atom))
    head = atoms[:ok]
    return ok, [as_integers(col) for col in (zip(*head) if head else [()] * width)]


def _check_total(ps: list[int], D: int) -> None:
    """Total mass 1: the probabilities ps / D sum to D / D."""
    if sum(ps) != D:
        raise InputError(f"probabilities must sum to 1, got {Fraction(sum(ps), D)}")


def normalize_joint(
    raw_atoms: Iterable[tuple[RationalLike, RationalLike, RationalLike]],
) -> JointDist:
    """Build a canonical joint law; merges duplicate cells, rescales weights.
    Cells that arrive strictly ascending by (w, z) keep their order (see _merged)."""
    wf, zf, weights, all_int = [], [], [], True
    for w, z, weight in raw_atoms:
        w = w if type(w) is Fraction else as_fraction(w)
        z = z if type(z) is Fraction else as_fraction(z)
        if type(weight) is int:
            wt = n = weight
        else:
            wt = as_fraction(weight)
            n, all_int = wt.numerator, False
        if n < 0:
            raise InputError(f"negative weight {wt} at cell {(w, z)}")
        if n:
            wf.append(w)
            zf.append(z)
            weights.append(wt)
    (ws, VW), (zs, VZ) = as_integers(wf), as_integers(zf)
    return _merged(_cell_keys(ws, zs), (VW, VZ), (wf, zf, ws, zs),
                   weights if all_int else as_integers(weights)[0])


def joint_marginal_w(j: JointDist) -> DiscreteDist:
    return _merged(j.ints.w, (j.ints.VW,), ([w for w, _, _ in j.atoms],), j.ints.p)


def joint_sum(j: JointDist) -> DiscreteDist:
    """Law of W + Z."""
    sums, L = _reduced(*j.ints.combined())
    return _merged(sums, (L,), (), j.ints.p)


# ---------------------------------------------------------------------------
# Standard normal helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def norm_quantile(t: float) -> float:
    """Standard normal quantile by bisection on the erfc-based CDF."""
    if not 0.0 < t < 1.0:
        raise InputError(f"quantile level must lie in (0, 1), got {t}")
    # 1e-13 absolute is past what downstream tolerances need
    return bisection(lambda z: norm_cdf(z) < t, -40.0, 40.0, 1e-13)


def bisection(left: Callable[[float], bool], lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi] to width tol around the point where left(x) turns False."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if left(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Generic operations
# ---------------------------------------------------------------------------


def mean(d: Dist) -> Fraction | float:
    disc = as_discrete(d)
    if disc is not None:
        return sum((v * p for v, p in disc.atoms), _ZERO)
    law = _family(d)
    return _closed_form(law, law.mean)


def affine(d: Dist, a: RationalLike, b: RationalLike) -> DiscreteDist:
    """Law of a*X + b for a finite law, exact; a continuous family raises
    UnsupportedPairingError."""
    disc = as_discrete(d)
    if disc is None:
        raise UnsupportedPairingError(f"affine map is not defined for {type(_family(d)).__name__}")
    af, bf = as_fraction(a), as_fraction(b)
    if not af:
        return point_mass_dist(bf)
    # a x / V + b over q V s, for a = n / q and b = r / s; a < 0 reverses the order
    (n, q), (r, s), (xs, V, ws, D) = af.as_integer_ratio(), bf.as_integer_ratio(), disc.ints
    step = 1 if n > 0 else -1
    xs, V = _reduced([n * s * x + r * q * V for x in xs[::step]], q * V * s)
    atoms = tuple(zip([Fraction(x, V) for x in xs], disc.probs[::step]))
    return _trusted(DiscreteDist, atoms, LawInts(xs, V, ws[::step], D))


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------
#
# Discrete:   {"type": "discrete", "atoms": [{"x": 0, "p": "1/4"}, ...]}
# Parametric: {"type": "normal", "mu": 0.0, "sigma": 1.0}
#             {"type": "exponential", "rate": 1.0}
#             {"type": "bernoulli", "q": 0.5}
#             {"type": "lognormal", "mu": 0.0, "sigma": 1.0}
#             {"type": "point", "c": 1.0}
# Joint:      {"type": "joint", "atoms": [{"w": 0, "z": "-1/2", "p": "1/4"}, ...]}
#
# Probabilities must be ints or rational strings; floats there are rejected so
# that exactness is never silently lost.  Values may be ints, floats or
# rational strings.

# The most atoms of a law and cells of a joint that the codecs read, checked
# before any atom is parsed, and the most atoms discretize builds: one bound,
# so that every discretize output reads back.  Each costs time linear in the
# count.  Through the CLI at the cap, printing included (shared 2-vCPU Xeon
# VM, Python 3.11; its speed varies by up to 1.7x): `discretize --grid 100000`
# took 0.9-1.0 s on a Normal and 1.4-1.5 s on a LogNormal at a 77 MB peak;
# `es --level 1/2` on a law of 100,000 atoms 0.86-0.94 s at 76 MB, 88 MB with
# the atoms shuffled; `check-cond --which new` on a joint of 100 x 1,000 cells
# 1.2-1.4 s at 107 MB, 1.4-1.6 s at 119 MB with the cells shuffled.
_MAX_ATOMS = 100_000


def rational_to_json(q: Fraction) -> int | str:
    return int(q) if q.denominator == 1 else str(q)


def _prob_from_json(v: object, i: int) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise InputError(f"atom {i}: probability must be an int or a rational string, got {v!r}")
    return as_fraction(v)


def _value_from_json(v: object, i: int) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InputError(f"atom {i}: value must be a number or rational string, got {v!r}")
    return as_fraction(v)


def _float_param(obj: dict, key: str) -> float:
    if key not in obj:
        raise InputError(f"missing parameter {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"parameter {key!r} must be a number, got {v!r}")
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        raise InputError(f"parameter {key!r} exceeds binary64")
    return float(v)


_FAMILIES = {f.kind: f for f in (Normal, Exponential, Bernoulli, LogNormal, PointMass)}


def _atoms_from_json(obj: dict, keys: tuple[str, ...]) -> list[tuple[Fraction, ...]]:
    """The 'atoms' list of a discrete law, keyed ("x", "p"), or of a joint
    law, keyed ("w", "z", "p"), as exact tuples in the keys' order.  The count
    cap is checked before any atom; the weights' signs are left to normalize,
    so every atom's shape and types are checked before any weight."""
    if len(keys) == 3:
        law, what, shape = "joint law", "cells", "joint atom {} must be an object with 'w', 'z' and 'p'"
    else:
        law, what, shape = "discrete law", "atoms", "atom {} must be an object with 'x' and 'p'"
    atoms = obj.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise InputError(f"{law} needs a non-empty 'atoms' list")
    if len(atoms) > _MAX_ATOMS:
        raise InputError(f"{law} takes at most {_MAX_ATOMS} {what}, got {len(atoms)}")
    *values, weight = keys
    need, raw = set(keys), []
    for i, a in enumerate(atoms):
        if not isinstance(a, dict) or not a.keys() >= need:
            raise InputError(shape.format(i))
        raw.append((*[_value_from_json(a[k], i) for k in values], _prob_from_json(a[weight], i)))
    return raw


def dist_from_json(obj: object) -> Dist:
    if not isinstance(obj, dict):
        raise InputError("distribution JSON must be an object")
    kind = obj.get("type")
    if kind == "discrete":
        return normalize(_atoms_from_json(obj, ("x", "p")))
    family = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise InputError(f"unknown distribution type {kind!r}")
    return family(*(_float_param(obj, f.name) for f in fields(family)))


def dist_to_json(d: Dist) -> dict:
    if isinstance(d, DiscreteDist):
        return {
            "type": "discrete",
            "atoms": [
                {"x": rational_to_json(v), "p": rational_to_json(p)} for v, p in d.atoms
            ],
        }
    return {"type": _family(d).kind, **asdict(d)}


def joint_from_json(obj: object) -> JointDist:
    if not isinstance(obj, dict):
        raise InputError("joint JSON must be an object")
    if obj.get("type") != "joint":
        raise InputError(f"expected type 'joint', got {obj.get('type')!r}")
    return normalize_joint(_atoms_from_json(obj, ("w", "z", "p")))


def joint_to_json(atoms: Iterable[tuple[Fraction, Fraction, Fraction]]) -> dict:
    """A joint law's JSON from its cells (w, z, p), written as they stand."""
    return {
        "type": "joint",
        "atoms": [
            {
                "w": rational_to_json(w),
                "z": rational_to_json(z),
                "p": rational_to_json(p),
            }
            for w, z, p in atoms
        ],
    }


def discretize(d: Dist, n: int) -> DiscreteDist:
    """n equal-mass atoms at the midpoint quantiles Q((2k-1)/(2n)), k=1..n,
    for 2 <= n <= _MAX_ATOMS.

    An approximation for continuous families, never applied silently: callers
    that need a discrete law must invoke it themselves.  Laws that are
    already finite convert exactly whatever n in that range: a DiscreteDist
    passes through, a PointMass becomes its single atom and a Bernoulli its two.
    An Exponential or a LogNormal reads its own quantile_right at each level.
    For a Normal the offsets sigma * norm_quantile(t) from mu are generated on
    the lower half and mirrored about mu, so the discretized mean is exactly mu.
    A quantile beyond binary64 is an input error.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise InputError(f"discretization needs n >= 2 atoms, got {n}")
    if n > _MAX_ATOMS:
        raise InputError(f"discretization takes at most {_MAX_ATOMS} atoms, got {n}")
    exact = as_discrete(d)
    if exact is not None:
        return exact
    law = _family(d)
    levels = [(2 * k - 1) / (2 * n) for k in range(1, n + 1)]
    prob = Fraction(1, n)
    if isinstance(law, Normal):

        def quantile_offset(t: float) -> float:
            return law.sigma * norm_quantile(t)

        # pair each offset with its exact rational negation so the
        # discretized mean is exactly mu; the values go to normalize in
        # ascending order (lower half, centre, mirrored upper half), which
        # it takes without a merge
        center = Fraction(law.mu)
        offsets = [Fraction(_closed_form(law, quantile_offset, t)) for t in levels[: n // 2]]
        values = [center + off for off in offsets]
        if n % 2 == 1:
            values.append(center)
        values += [center - off for off in reversed(offsets)]
        return normalize((v, prob) for v in values)
    return normalize((_closed_form(law, law.quantile_right, t), prob) for t in levels)
