"""First-order formulas with de Bruijn binders and their basic operations.

Variables are natural numbers.  A quantifier binds index 0 of its body; free
variables inside the body are shifted up by one.  ``bind`` and ``inst`` convert
between a named free variable and the bound index, so callers can work with
named variables and never touch raw indices.
"""
from __future__ import annotations

from typing import Callable, ClassVar, Iterable, Literal, NamedTuple, Sequence, TypeVar

VarId = int
PredId = int
Quantifier = Literal["all", "ex"]
R = TypeVar("R")
C = TypeVar("C")


class _DataclassFields:
    """``__dataclass_fields__`` of a node class, built from its ``_fields``
    with ``dataclasses.make_dataclass`` the first time it is read and then
    kept on that class.  With it ``dataclasses.fields``, ``replace`` and
    ``is_dataclass`` accept nodes, and only a caller that uses them imports
    ``dataclasses``: the import costs a ``craigseq`` command more than its
    own work on a small input.  A base of the node shapes has no ``_fields``
    and is no dataclass."""

    def __get__(self, node: object, cls: type[_Node]) -> dict[str, object]:
        names = cls._fields  # on a base, an AttributeError: no dataclass
        from dataclasses import make_dataclass

        fields = make_dataclass(cls.__name__, names).__dataclass_fields__  # type: ignore[attr-defined]
        setattr(cls, "__dataclass_fields__", fields)
        return fields


class _Node:
    """Base of formula and derivation nodes: a shape names its fields once,
    as ``_fields`` and ``__match_args__``, and its ``__init__`` sets them
    with ``object.__setattr__``.  After that a node is frozen: assigning or
    deleting any attribute raises ``dataclasses.FrozenInstanceError``.  A
    pickle or a deep copy of a node is ``_rebuild`` of ``_flat``: every
    node, sequent and formula set below it once, as the class and the parts
    each one is built from, so nothing that a node computes and keeps travels
    with it, every object shared below the node stays one object, and neither
    recurses.  A shallow copy is the node's constructor call on its own
    fields."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()
    _fields: ClassVar[tuple[str, ...]]

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[Callable[[tuple], object], tuple[object, ...]]:
        return _rebuild, (_flat(self),)

    def __copy__(self) -> _Node:
        return type(self)(*(getattr(self, name) for name in self._fields))


def _flat(root: object) -> tuple[tuple, ...]:
    """``root`` and every value below it, each object once and in post-order,
    as ``(class, kept, indices)``.  An atom keeps its predicate and
    arguments; every other value names its parts, the values of its
    ``_fields`` or else its items as a tuple, by the indices of their
    entries.  One explicit-stack walk."""
    index: dict[int, int] = {}  # id of a value -> its entry
    entries: list[tuple] = []
    todo: list[tuple[object, tuple | None]] = [(root, None)]  # a value, and its parts once they are above it
    while todo:
        value, parts = todo.pop()
        if id(value) in index:
            continue
        if type(value) is Atom:
            entries.append((Atom, (value.pred, value.args), ()))
        elif parts is not None:
            entries.append((type(value), (), tuple([index[id(part)] for part in parts])))
        else:
            names = getattr(value, "_fields", None)
            parts = value if names is None else tuple([getattr(value, name) for name in names])
            todo.append((value, parts))
            todo += ((part, None) for part in parts)
            continue
        index[id(value)] = len(entries) - 1
    return tuple(entries)


def _rebuild(entries: tuple[tuple, ...]) -> object:
    """The last value of ``_flat``'s entries, each built from its own: a class
    with ``_fields`` is called on the kept values and the parts, any other
    tuple class on the tuple of the parts, so a formula set sorts its
    members afresh."""
    values: list = []
    for cls, kept, indices in entries:
        parts = [values[i] for i in indices]
        values.append(cls(*kept, *parts) if hasattr(cls, "_fields") else cls(parts))
    return values[-1]


def _frozen(message: str) -> Exception:
    """The error a frozen node raises; ``dataclasses`` is imported only here."""
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Formula(_Node):
    """Base class of all formula nodes.  Instances are immutable and hashable.

    The canonical key is a node's identity: two nodes are equal exactly when
    their keys are, and the hash is the key's hash.  Building a node only
    stores its fields.  Its canonical key, hash, free variables, polarity,
    printed text and ``repr`` are computed the first time each is asked for
    and kept on the node; pickles and copies carry only its fields, and a
    pickle or deep copy of a node or an interpolation result gives each
    formula object below it once.  ``repr`` and the text are folds, ``repr``
    stopping at subnodes that keep theirs; the key, free variables and
    polarity are flat loops, the last two stopping at cached subnodes.  None
    recurses, so a formula's depth is bounded by memory, not by the recursion
    limit.
    """

    __slots__ = ()

    _tag: ClassVar[int]
    _hash: int | None = None
    _key: tuple[int, ...] | None = None
    _fv: tuple[VarId, ...] | None = None
    _pol: Polarity | None = None
    _text: str | None = None
    _repr_text: str | None = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(canonical_key(self))
            _set(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return canonical_key(self) == canonical_key(other)

    def __repr__(self) -> str:
        """``Shape(field=value, ...)``, written once by a fold that stops at the
        nodes that keep theirs, so no formula is too deep for it."""
        text = self._repr_text
        if text is None:
            text = fold(self, (_repr,) * 8, None, stop=lambda g, c: g._repr_text)
            _set(self, "_repr_text", text)
        return text


_set = object.__setattr__


class Atom(Formula):
    _fields = __match_args__ = ("pred", "args")
    pred: PredId
    args: tuple[VarId, ...]
    _tag = 0

    def __init__(self, pred: PredId, args: Iterable[VarId] = ()) -> None:
        _set(self, "pred", pred)
        _set(self, "args", tuple(args))


class _Constant(Formula):
    _fields = __match_args__ = ()


class _Junction(Formula):
    _fields = __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class _Quantified(Formula):
    _fields = __match_args__ = ("body",)
    body: Formula

    def __init__(self, body: Formula) -> None:
        _set(self, "body", body)


class Bot(_Constant):
    _tag = 1


class Top(_Constant):
    _tag = 2


class And(_Junction):
    _tag = 3


class Or(_Junction):
    _tag = 4


class Not(Formula):
    _fields = __match_args__ = ("sub",)
    sub: Formula
    _tag = 5

    def __init__(self, sub: Formula) -> None:
        _set(self, "sub", sub)


class FAll(_Quantified):
    _tag = 6


class FEx(_Quantified):
    _tag = 7


BOT = Bot()
TOP = Top()


def fold(
    f: Formula,
    combine: Sequence[Callable[..., R]],
    ctx: C,
    under: Callable[[Formula, C], C] | None = None,
    stop: Callable[[Formula, C], R | None] | None = None,
) -> R:
    """Post-order fold of ``f`` with an explicit stack, dispatched on ``_tag``.

    ``ctx`` is handed down the tree; a quantifier's body gets
    ``under(quantifier, ctx)`` when ``under`` is given.  ``stop(g, ctx)``, when
    given, is asked first at each node: a value other than ``None`` is the
    node's value and the fold does not descend into it.  Otherwise the node's
    value is ``combine[g._tag](g, c, *values)``, with ``values`` the values of
    its children in order and ``c`` the context they were folded in.  The
    depth of ``f`` is bounded by memory, not by the recursion limit.
    """
    out: list[R] = []
    todo: list[tuple[Formula, C, bool]] = [(f, ctx, True)]
    while todo:
        g, c, down = todo.pop()
        tag = g._tag
        if not down:
            if tag < 5:
                right = out.pop()
                out[-1] = combine[tag](g, c, out[-1], right)
            else:
                out[-1] = combine[tag](g, c, out[-1])
        elif stop is not None and (v := stop(g, c)) is not None:
            out.append(v)
        elif tag < 3:
            out.append(combine[tag](g, c))
        elif tag < 5:
            todo += ((g, c, False), (g.right, c, True), (g.left, c, True))  # type: ignore[attr-defined]
        elif tag == 5:
            todo += ((g, c, False), (g.sub, c, True))  # type: ignore[attr-defined]
        else:
            c = under(g, c) if under is not None else c
            todo += ((g, c, False), (g.body, c, True))  # type: ignore[attr-defined]
    return out[0]


def _same(g: Formula, c: object) -> Formula:
    return g


def _binary(g: Formula, c: object, left: Formula, right: Formula) -> Formula:
    """``g`` with new children, or ``g`` itself when they are unchanged."""
    if left is g.left and right is g.right:  # type: ignore[attr-defined]
        return g
    return type(g)(left, right)  # type: ignore[call-arg]


def _unary(g: Formula, c: object, sub: Formula) -> Formula:
    """``g`` with a new child, or ``g`` itself when it is unchanged."""
    if sub is (g.sub if g._tag == 5 else g.body):  # type: ignore[attr-defined]
        return g
    return type(g)(sub)  # type: ignore[call-arg]


#: Combine functions that rebuild a node only where a child changed.
REBUILD = (_same, _same, _same, _binary, _binary, _unary, _unary, _unary)


def _repr(g: Formula, c: None, *subs: str) -> str:
    """``Shape(field=value, ...)`` of ``g``, given the text of its subformulas."""
    names = g._fields
    values = subs or [repr(getattr(g, name)) for name in names]
    return f"{type(g).__qualname__}({', '.join(f'{n}={v}' for n, v in zip(names, values))})"


def rename_vars(s: Callable[[VarId], VarId], f: Formula) -> Formula:
    """Apply the total variable renaming ``s``, lifted under binders.

    Under ``d`` binders the renaming fixes the bound indices ``0..d-1`` and
    maps ``v`` to ``s(v - d) + d`` otherwise.  A subformula whose free
    variables the lifted renaming all fixes comes back as the same object.
    """

    def renamed(g: Formula, depth: int) -> Formula | None:
        if g._tag == 0:
            args = tuple([v if v < depth else s(v - depth) + depth for v in g.args])  # type: ignore[attr-defined]
            return g if args == g.args else Atom(g.pred, args)  # type: ignore[attr-defined]
        vs = g._fv
        return g if vs is not None and all(v < depth or s(v - depth) == v - depth for v in vs) else None

    return fold(f, REBUILD, 0, lambda g, depth: depth + 1, renamed)


_QUANTIFIERS: dict[int, Quantifier] = {6: "all", 7: "ex"}


def bind(q: Quantifier, a: VarId, f: Formula) -> Formula:
    """Quantify ``f`` over the named variable ``a``.

    Occurrences of ``a`` become the bound index; every other variable is
    shifted up to make room.  The free variables of the result are those of
    ``f`` without ``a``, in the same order, and are kept on it at once.
    """
    body = rename_vars(lambda v: 0 if v == a else v + 1, f)
    out = FAll(body) if q == "all" else FEx(body)
    _set(out, "_fv", tuple([v for v in free_vars(f) if v != a]))
    return out


def inst(q: Quantifier, t: VarId, f: Formula) -> Formula:
    """Open the ``q``-quantified formula ``f`` with the variable ``t``.

    Partial: ``f`` must be headed by the matching quantifier.
    """
    if _QUANTIFIERS.get(f._tag) != q:
        raise ValueError(f"inst({q!r}, ...) needs a formula headed by that quantifier, got {f!r}")
    return rename_vars(lambda v: t if v == 0 else v - 1, f.body)  # type: ignore[attr-defined]


def pre_suc(xs: Iterable[VarId]) -> list[VarId]:
    """Drop zeros and shift the remaining indices down by one."""
    return [v - 1 for v in xs if v > 0]


def free_vars(f: Formula) -> list[VarId]:
    """Free variables of ``f`` in syntactic order, duplicates preserved.

    One preorder walk: below ``depth`` binders an argument ``v >= depth`` is
    free and names ``v - depth``, as ``pre_suc`` once per binder gives.
    """
    fv = f._fv
    if fv is None:
        out: list[VarId] = []
        stack = [(f, 0)]
        while stack:
            g, depth = stack.pop()
            tag = g._tag
            vs = g._fv if g._fv is not None else g.args if tag == 0 else None  # type: ignore[attr-defined]
            if vs is not None:
                out += [v - depth for v in vs if v >= depth]
            elif tag > 4:
                stack.append((g.sub, depth) if tag == 5 else (g.body, depth + 1))  # type: ignore[attr-defined]
            elif tag > 2:
                stack += ((g.right, depth), (g.left, depth))  # type: ignore[attr-defined]
        fv = tuple(out)
        _set(f, "_fv", fv)
    return list(fv)


class Polarity(NamedTuple):
    positives: frozenset[PredId]
    negatives: frozenset[PredId]


def polarity(f: Formula) -> Polarity:
    """Predicate identifiers occurring positively and negatively in ``f``:
    one walk that swaps the sides below each negation."""
    p = f._pol
    if p is None:
        sides: tuple[set[PredId], set[PredId]] = (set(), set())  # positives, negatives
        stack = [(f, 0)]  # with odd = 1 below an odd number of negations
        while stack:
            g, odd = stack.pop()
            tag = g._tag
            if g._pol is not None:
                sides[odd].update(g._pol.positives)
                sides[1 - odd].update(g._pol.negatives)
            elif tag == 0:
                sides[odd].add(g.pred)  # type: ignore[attr-defined]
            elif tag > 4:
                stack.append((g.sub, 1 - odd) if tag == 5 else (g.body, odd))  # type: ignore[attr-defined]
            elif tag > 2:
                stack += ((g.left, odd), (g.right, odd))  # type: ignore[attr-defined]
        p = Polarity(frozenset(sides[0]), frozenset(sides[1]))
        _set(f, "_pol", p)
    return p


def pos(f: Formula) -> frozenset[PredId]:
    return polarity(f).positives


def neg(f: Formula) -> frozenset[PredId]:
    return polarity(f).negatives


def canonical_key(f: Formula) -> tuple[int, ...]:
    """Flat preorder encoding of ``f``: its tag, then for an atom the
    predicate, arity and arguments, else its children's keys in order.

    Lexicographic order on keys is a total order on formulas, and two formulas
    have equal keys exactly when they are equal.
    """
    k = f._key
    if k is None:
        out: list[int] = []
        stack = [f]
        while stack:
            g = stack.pop()
            if g._key is not None:
                out += g._key
                continue
            tag = g._tag
            out.append(tag)
            if tag == 0:
                out += (g.pred, len(g.args), *g.args)  # type: ignore[attr-defined]
            elif tag == 3 or tag == 4:
                stack += (g.right, g.left)  # type: ignore[attr-defined]
            elif tag == 5:
                stack.append(g.sub)  # type: ignore[attr-defined]
            elif tag > 5:
                stack.append(g.body)  # type: ignore[attr-defined]
        k = tuple(out)
        _set(f, "_key", k)
    return k


def _opening(quantified: Formula, instance: Formula) -> VarId | None:
    """The variable ``t`` with ``inst(q, t, quantified) == instance``: -1 when
    the binder is vacuous and every variable works, ``None`` when the head of
    ``quantified`` is not a quantifier or no variable works.

    One explicit-stack walk of the body of ``quantified`` and ``instance`` in
    lockstep checks each pair of atom arguments as it reaches them and stops
    at the first mismatch.

    A pair that is one object, ``a is b`` below ``depth`` binders of the
    body, is decided from the free variables of ``a`` without descending:
    each ``v < depth`` is bound inside the body and passes, ``v == depth``
    opens to itself and so fixes ``t`` to 0, and ``v > depth`` would have to
    move down by one and fails.  This is the condition under which
    ``rename_vars`` keeps a subformula as it is, so ``bind`` and ``inst``
    hand back exactly the subformulas that meet it.  The free variables come
    from the cached ``_fv``, or from one ``free_vars`` call that caches them.
    """
    if quantified._tag not in _QUANTIFIERS:
        return None
    t = -1
    stack = [(quantified.body, instance, 0)]  # type: ignore[attr-defined]
    while stack:
        a, b, depth = stack.pop()
        if a is b:
            for v in a._fv if a._fv is not None else free_vars(a):
                if v > depth or (v == depth and t > 0):
                    return None
                if v == depth:
                    t = 0
            continue
        tag = a._tag
        if tag != b._tag:
            return None
        if tag == 0:
            if a.pred != b.pred or len(a.args) != len(b.args):  # type: ignore[attr-defined]
                return None
            for u, w in zip(a.args, b.args):  # type: ignore[attr-defined]
                if u == depth:  # the bound index, opened to t
                    if w < depth or (t >= 0 and w - depth != t):
                        return None
                    t = w - depth
                elif w != (u if u < depth else u - 1):
                    return None
        elif tag < 3:
            continue
        elif tag < 5:
            stack += ((a.right, b.right, depth), (a.left, b.left, depth))  # type: ignore[attr-defined]
        elif tag == 5:
            stack.append((a.sub, b.sub, depth))  # type: ignore[attr-defined]
        else:
            stack.append((a.body, b.body, depth + 1))  # type: ignore[attr-defined]
    return t


def match_inst(quantified: Formula, instance: Formula) -> VarId | None:
    """Find a variable ``t`` with ``inst(q, t, quantified) == instance``.

    The quantifier is read off the head of ``quantified``; ``None`` when the
    head is not a quantifier or no variable works.  ``t`` is read off the
    first occurrence of the bound index, and every other occurrence must
    agree.  When the binder is vacuous every variable works and 0 is returned.
    """
    t = _opening(quantified, instance)
    return 0 if t == -1 else t


def match_bind(quantified: Formula, body: Formula, forbidden: Iterable[VarId]) -> VarId | None:
    """Find a variable ``a`` outside ``forbidden`` with ``bind(q, a, body) == quantified``.

    The quantifier is read off the head of ``quantified``.  ``a`` is read off
    the first variable of ``body`` that ``quantified`` binds, and every other
    occurrence must agree.  When the binder is vacuous any fresh variable
    works and the smallest one outside ``forbidden`` and ``body`` is returned.
    """
    # Closing is opening plus freshness: bind(q, a, body) == quantified exactly
    # when inst(q, a, quantified) == body and a is not free in quantified.
    a = _opening(quantified, body)
    if a is None:
        return None
    bad = set(free_vars(quantified)).union(forbidden)
    if a == -1:
        a = 0
        while a in bad:
            a += 1
        return a
    return None if a in bad else a
